package graph

import (
	"bytes"
	"strings"
	"testing"
)

// Fuzz targets: the parsers must never panic and must only return graphs
// that pass Validate. Run with `go test -fuzz FuzzReadEdgeList` for a
// fuzzing session; under plain `go test` the seed corpus acts as a unit
// test.

func FuzzReadEdgeList(f *testing.F) {
	f.Add("graph 3 2\ne 0 1\ne 1 2\n")
	f.Add("graph 2 1 vweights\nv 0 5\nv 1 2\ne 0 1 7\n")
	f.Add("# comment\n\ngraph 0 0\n")
	f.Add("graph 1 0\n")
	f.Add("e 0 1\n")
	f.Add("graph -1 0\n")
	f.Add("graph 99999999999999999999 0\n")
	f.Add("graph 2 1\ne 0 1\ne 0 1\n")
	// Truncated records and hostile headers: oversized or negative
	// counts, ids that would wrap when narrowed to int32, and a header
	// with the body cut off mid-record.
	f.Add("graph 3")
	f.Add("graph 3 2\ne 0")
	f.Add("graph 3 2\ne 0 1\ne 1")
	f.Add("graph 2 -1\n")
	f.Add("graph 2 999999999999\n")
	f.Add("graph 134217729 0\n") // MaxVertices+1
	f.Add("graph 2 1\ne 4294967296 1\n")
	f.Add("graph 2 1\ne 0 1 4294967297\n")
	f.Add("graph 2 1 vweights\nv 0 4294967298\ne 0 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("parser accepted invalid graph: %v\ninput: %q", verr, in)
		}
		// Round trip must succeed and agree.
		var buf bytes.Buffer
		if werr := WriteEdgeList(&buf, g); werr != nil {
			t.Fatalf("write-back failed: %v", werr)
		}
		g2, rerr := ReadEdgeList(&buf)
		if rerr != nil {
			t.Fatalf("round trip parse failed: %v", rerr)
		}
		if !graphsEqual(g, g2) {
			t.Fatalf("round trip changed the graph for %q", in)
		}
	})
}

// FuzzCSREquivalence cross-checks every CSR-served accessor against a
// naive map model built from the same edge multiset: whatever sequence
// of (possibly duplicate) weighted edges the Builder accepts, the CSR
// layout must report exactly the merged adjacency — same neighbor sets,
// same weights via EdgeWeight's binary search, same degree summaries,
// and the model's cut of a fixed bisection, which is what the refinement
// algorithms ultimately compute from them. ResetCSR over copies of the
// built arrays (the way the contraction kernel adopts its rows) must
// give the same graph.
func FuzzCSREquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 1, 0, 9, 1, 2, 1, 0, 1, 2}) // duplicate edge {0,1}
	f.Add([]byte{60, 0, 59, 200, 59, 0, 100})
	f.Add([]byte{3, 0, 0, 1, 1, 1, 0}) // self-loop (rejected) then valid
	f.Add([]byte{5, 0, 1, 1, 1, 2, 3, 2, 3, 1, 0, 3, 200})
	f.Add([]byte{2, 0, 1, 255})
	f.Add([]byte{64, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, in []byte) {
		n := 2
		if len(in) > 0 {
			n = 2 + int(in[0])%60
			in = in[1:]
		}
		b := NewBuilder(n)
		model := map[[2]int32]int64{}
		for len(in) >= 3 {
			u := int32(int(in[0]) % n)
			v := int32(int(in[1]) % n)
			w := int32(in[2])%16 + 1
			in = in[3:]
			b.AddWeightedEdge(u, v, w)
			if u != v {
				if u > v {
					u, v = v, u
				}
				model[[2]int32{u, v}] += int64(w)
			} else {
				return // Builder rejects self-loops; nothing to compare
			}
		}
		built, err := b.Build()
		if err != nil {
			t.Fatalf("Build rejected a valid edge sequence: %v", err)
		}
		var adopted Graph
		if err := adopted.ResetCSR(append([]int32(nil), built.off...), append([]Edge(nil), built.edges...), nil); err != nil {
			t.Fatalf("ResetCSR rejected the built arrays: %v", err)
		}
		if !graphsEqual(built, &adopted) {
			t.Fatal("ResetCSR over the built arrays gives a different graph")
		}
		var cut int64
		for key, w := range model {
			if key[0]&1 != key[1]&1 {
				cut += w
			}
		}
		for _, c := range []struct {
			name string
			g    *Graph
		}{{"built", built}, {"adopted", &adopted}} {
			g := c.g
			if verr := g.Validate(); verr != nil {
				t.Fatalf("%s graph fails Validate: %v", c.name, verr)
			}
			if g.M() != len(model) {
				t.Fatalf("%s: M() = %d, model has %d merged edges", c.name, g.M(), len(model))
			}
			var totalW, maxWDeg int64
			maxDeg := 0
			for u := int32(0); int(u) < n; u++ {
				var wdeg int64
				deg := 0
				prev := int32(-1)
				for _, e := range g.Neighbors(u) {
					if e.To <= prev {
						t.Fatalf("%s: Neighbors(%d) not strictly sorted by To", c.name, u)
					}
					prev = e.To
					key := [2]int32{u, e.To}
					if u > e.To {
						key = [2]int32{e.To, u}
					}
					if model[key] != int64(e.W) {
						t.Fatalf("%s: edge {%d,%d}: CSR weight %d, model %d", c.name, u, e.To, e.W, model[key])
					}
					wdeg += int64(e.W)
					deg++
				}
				if g.Degree(u) != deg || g.WeightedDegree(u) != wdeg {
					t.Fatalf("%s: vertex %d: Degree/WeightedDegree (%d,%d) != recomputed (%d,%d)",
						c.name, u, g.Degree(u), g.WeightedDegree(u), deg, wdeg)
				}
				maxWDeg = max(maxWDeg, wdeg)
				maxDeg = max(maxDeg, deg)
				totalW += wdeg
				// EdgeWeight must agree with the model for every pair,
				// including absent ones (n ≤ 62 keeps this quadratic check
				// cheap), and regardless of probe direction.
				for v := int32(0); int(v) < n; v++ {
					if u == v {
						continue
					}
					key := [2]int32{u, v}
					if u > v {
						key = [2]int32{v, u}
					}
					if got := int64(g.EdgeWeight(u, v)); got != model[key] {
						t.Fatalf("%s: EdgeWeight(%d,%d) = %d, model %d", c.name, u, v, got, model[key])
					}
					if g.HasEdge(u, v) != (model[key] != 0) {
						t.Fatalf("%s: HasEdge(%d,%d) disagrees with model", c.name, u, v)
					}
				}
			}
			if g.MaxWeightedDegree() != maxWDeg || g.MaxDegree() != maxDeg {
				t.Fatalf("%s: cached max degrees (%d,%d) != recomputed (%d,%d)",
					c.name, g.MaxWeightedDegree(), g.MaxDegree(), maxWDeg, maxDeg)
			}
			if g.TotalEdgeWeight() != totalW/2 {
				t.Fatalf("%s: TotalEdgeWeight %d != recomputed %d", c.name, g.TotalEdgeWeight(), totalW/2)
			}
			if got := fixedCut(g); got != cut {
				t.Fatalf("%s: fixed-bisection cut %d, model %d", c.name, got, cut)
			}
		}
	})
}

// fixedCut computes the cut of the parity bisection (side = v mod 2)
// straight from the edge enumeration.
func fixedCut(g *Graph) int64 {
	var cut int64
	g.Edges(func(u, v, w int32) {
		if u&1 != v&1 {
			cut += int64(w)
		}
	})
	return cut
}
