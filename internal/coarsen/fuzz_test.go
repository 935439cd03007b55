package coarsen

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
)

// FuzzContractEquivalence cross-checks the direct-CSR contraction
// kernel against a naive map-based model of contraction, in the spirit
// of graph.FuzzCSREquivalence: whatever weighted graph the fuzzer
// assembles and whatever random maximal matching it draws, the coarse
// graph must carry exactly the model's merged vertex weights and folded
// edge weights, in valid sorted CSR.
func FuzzContractEquivalence(f *testing.F) {
	f.Add([]byte{}, uint64(1))
	f.Add([]byte{7, 0, 1, 3, 1, 2, 5, 2, 3, 1, 0, 3, 2}, uint64(7))
	f.Add([]byte{4, 0, 1, 1, 2, 3, 1, 0, 2, 1, 1, 3, 1, 0, 3, 1, 1, 2, 1}, uint64(42)) // K4-ish
	f.Add([]byte{60, 0, 59, 9, 59, 1, 9, 1, 0, 9}, uint64(3))
	f.Fuzz(func(t *testing.T, in []byte, seed uint64) {
		n := 2
		if len(in) > 0 {
			n = 2 + int(in[0])%60
			in = in[1:]
		}
		b := graph.NewBuilder(n)
		any := false
		for len(in) >= 3 {
			u := int32(int(in[0]) % n)
			v := int32(int(in[1]) % n)
			w := int32(in[2])%16 + 1
			in = in[3:]
			if u == v {
				return // Builder rejects self-loops; nothing to contract
			}
			b.AddWeightedEdge(u, v, w)
			any = true
		}
		if !any {
			return
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("Build rejected a valid edge sequence: %v", err)
		}
		mate := matching.RandomMaximal(g, rng.NewFib(seed))
		c, err := NewWorkspace().Contract(g, mate)
		if err != nil {
			t.Fatalf("kernel Contract failed: %v", err)
		}
		checkContractModel(t, "kernel", g, mate, c)
	})
}

// TestContractChainMatchesModel contracts one Gbreg(2·10⁴, 64, 3) level
// by level down to 32 vertices on one workspace, twice with different
// matchings so the second chain runs on buffers the first one filled,
// and holds every level to the map-based model. Random matchings make
// the middle levels dense, so the chain must reach rows longer than 32
// entries: the rows a per-row sort would have had to heapsort.
func TestContractChainMatchesModel(t *testing.T) {
	g, err := gen.BReg(20000, 64, 3, rng.NewFib(11))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkspace()
	maxDeg := 0
	for _, seed := range []uint64{1, 2} {
		w.Reset()
		r := rng.NewFib(seed)
		for lvl, cur := 0, g; cur.N() > 32; lvl++ {
			mate := w.RandomMaximal(cur, r)
			if matching.Size(mate) == 0 {
				break
			}
			c, err := w.Contract(cur, mate)
			if err != nil {
				t.Fatalf("seed %d level %d: %v", seed, lvl, err)
			}
			checkContractModel(t, fmt.Sprintf("seed %d level %d", seed, lvl), cur, mate, c)
			maxDeg = max(maxDeg, c.Coarse.MaxDegree())
			cur = c.Coarse
		}
	}
	if maxDeg <= 32 {
		t.Fatalf("largest coarse degree %d: the chain never built a row longer than 32", maxDeg)
	}
}

// checkContractModel holds c, a contraction of g by mate, to a naive
// map-based model of contraction: coarse ids by the documented sweep
// (a matched pair owned by its smaller endpoint, ids in fine-vertex
// order), then vertex and edge weights accumulated in maps. The coarse
// graph must carry exactly the model's weights, in valid sorted CSR.
func checkContractModel(t *testing.T, name string, g *graph.Graph, mate []int32, c *Contraction) {
	t.Helper()
	n := g.N()
	cmap := make([]int32, n)
	next := int32(0)
	for v := 0; v < n; v++ {
		if m := mate[v]; m >= 0 && m < int32(v) {
			cmap[v] = cmap[m]
			continue
		}
		cmap[v] = next
		next++
	}
	vw := make(map[int32]int64)
	for v := 0; v < n; v++ {
		vw[cmap[v]] += int64(g.VertexWeight(int32(v)))
	}
	ew := make(map[[2]int32]int64)
	g.Edges(func(u, v, w int32) {
		cu, cv := cmap[u], cmap[v]
		if cu == cv {
			return
		}
		if cu > cv {
			cu, cv = cv, cu
		}
		ew[[2]int32{cu, cv}] += int64(w)
	})

	if verr := c.Coarse.Validate(); verr != nil {
		t.Fatalf("%s: coarse graph fails Validate: %v", name, verr)
	}
	if c.Coarse.N() != int(next) {
		t.Fatalf("%s: coarse N = %d, model %d", name, c.Coarse.N(), next)
	}
	for v := 0; v < n; v++ {
		if c.Map[v] != cmap[v] {
			t.Fatalf("%s: Map[%d] = %d, model %d", name, v, c.Map[v], cmap[v])
		}
	}
	for cv := int32(0); cv < next; cv++ {
		if got := int64(c.Coarse.VertexWeight(cv)); got != vw[cv] {
			t.Fatalf("%s: coarse vertex %d weight %d, model %d", name, cv, got, vw[cv])
		}
	}
	if c.Coarse.M() != len(ew) {
		t.Fatalf("%s: coarse M = %d, model has %d folded edges", name, c.Coarse.M(), len(ew))
	}
	for key, w := range ew {
		if got := int64(c.Coarse.EdgeWeight(key[0], key[1])); got != w {
			t.Fatalf("%s: coarse edge {%d,%d} weight %d, model %d", name, key[0], key[1], got, w)
		}
	}
}
