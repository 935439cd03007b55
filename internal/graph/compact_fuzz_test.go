package graph

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzCompactCSREquivalence pins the int32-offset CSR to a naive
// adjacency-map model of the same edge multiset: the graph built by the
// Builder and the same CSR arrays adopted through FromCSR must agree with
// the model on every accessor — vertex and edge counts, degrees,
// weighted degrees, sorted neighbor lists, pairwise edge weights — and
// on the cut of a fixed bisection, which is what the refinement
// algorithms ultimately compute from them.
func FuzzCompactCSREquivalence(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 1, 2, 3, 2, 3, 1, 0, 3, 200})
	f.Add([]byte{2, 0, 1, 255})
	f.Add([]byte{64, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := int(data[0])%64 + 2
		b := NewBuilder(n)
		// The model: merged weights per unordered pair, one map per vertex.
		adj := make([]map[int32]int32, n)
		for v := range adj {
			adj[v] = map[int32]int32{}
		}
		for rest := data[1:]; len(rest) >= 3; rest = rest[3:] {
			u := int32(rest[0]) % int32(n)
			v := int32(rest[1]) % int32(n)
			if u == v {
				continue
			}
			w := int32(rest[2])%7 + 1
			b.AddWeightedEdge(u, v, w)
			adj[u][v] += w
			adj[v][u] += w
		}
		built, err := b.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		adopted, err := FromCSR(append([]int32(nil), built.off...), append([]Edge(nil), built.edges...), nil)
		if err != nil {
			t.Fatalf("FromCSR: %v", err)
		}
		var m int
		var ew, maxWDeg int64
		var maxDeg int
		var cut int64
		for u, row := range adj {
			var wd int64
			for v, w := range row {
				wd += int64(w)
				if int32(u) < v {
					m++
					ew += int64(w)
					if u&1 != int(v&1) {
						cut += int64(w)
					}
				}
			}
			maxDeg = max(maxDeg, len(row))
			maxWDeg = max(maxWDeg, wd)
		}
		for name, g := range map[string]*Graph{"built": built, "adopted": adopted} {
			if err := g.Validate(); err != nil {
				t.Fatalf("%s: Validate: %v", name, err)
			}
			if g.N() != n || g.M() != m || g.TotalEdgeWeight() != ew ||
				g.MaxDegree() != maxDeg || g.MaxWeightedDegree() != maxWDeg {
				t.Fatalf("%s: aggregates %v, model n=%d m=%d ew=%d maxdeg=%d maxwdeg=%d", name, g, n, m, ew, maxDeg, maxWDeg)
			}
			for v := int32(0); int(v) < n; v++ {
				nb := g.Neighbors(v)
				if len(nb) != len(adj[v]) || g.Degree(v) != len(adj[v]) {
					t.Fatalf("%s: degree of %d is %d, model %d", name, v, len(nb), len(adj[v]))
				}
				var wd int64
				for i, e := range nb {
					if i > 0 && nb[i-1].To >= e.To {
						t.Fatalf("%s: neighbors of %d not strictly sorted", name, v)
					}
					if adj[v][e.To] != e.W {
						t.Fatalf("%s: edge {%d,%d} weight %d, model %d", name, v, e.To, e.W, adj[v][e.To])
					}
					wd += int64(e.W)
				}
				if g.WeightedDegree(v) != wd {
					t.Fatalf("%s: weighted degree of %d is %d, want %d", name, v, g.WeightedDegree(v), wd)
				}
				for u := int32(0); int(u) < n; u++ {
					if g.EdgeWeight(v, u) != adj[v][u] {
						t.Fatalf("%s: EdgeWeight(%d,%d) = %d, model %d", name, v, u, g.EdgeWeight(v, u), adj[v][u])
					}
				}
			}
			if c := fixedCut(g); c != cut {
				t.Fatalf("%s: fixed-bisection cut %d, model %d", name, c, cut)
			}
		}
		var eb, ea bytes.Buffer
		built.Edges(func(u, v, w int32) { fmt.Fprintf(&eb, "%d %d %d\n", u, v, w) })
		adopted.Edges(func(u, v, w int32) { fmt.Fprintf(&ea, "%d %d %d\n", u, v, w) })
		if !bytes.Equal(eb.Bytes(), ea.Bytes()) {
			t.Fatal("Edges enumeration differs between built and adopted graphs")
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
