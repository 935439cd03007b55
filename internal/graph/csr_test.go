package graph

import (
	"testing"
)

// csrFromBuilder lays out the Builder-built graph's adjacency as raw
// CSR arrays (copied), for adoption through ResetCSR.
func csrFromBuilder(t *testing.T, g *Graph) (off []int32, edges []Edge, vw []int32) {
	t.Helper()
	off = make([]int32, g.N()+1)
	for v := 0; v <= g.N(); v++ {
		off[v] = g.off[v]
	}
	edges = append([]Edge(nil), g.edges...)
	if g.vw != nil {
		vw = append([]int32(nil), g.vw...)
	}
	return off, edges, vw
}

func buildSample(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(5)
	b.AddWeightedEdge(0, 1, 3)
	b.AddWeightedEdge(1, 2, 1)
	b.AddWeightedEdge(2, 3, 7)
	b.AddWeightedEdge(0, 3, 2)
	b.AddWeightedEdge(1, 4, 5)
	b.SetVertexWeight(2, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBuilderSortsRows: records may arrive in any order; Build sorts
// each row, including rows long enough to hit the heapsort path.
func TestBuilderSortsRows(t *testing.T) {
	const n = 40 // star graph: hub row has 39 entries, above the insertion cutoff
	b := NewBuilder(n)
	for v := n - 1; v >= 1; v-- { // hub row descending
		b.AddWeightedEdge(0, int32(v), int32(v))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	prev := int32(-1)
	for _, e := range g.Neighbors(0) {
		if e.To <= prev {
			t.Fatal("hub row not sorted")
		}
		if e.W != e.To {
			t.Fatalf("edge {0,%d} weight %d, want %d", e.To, e.W, e.To)
		}
		prev = e.To
	}
}

// TestInvalidCSRRejected: each invariant violation in raw CSR arrays is
// caught by ResetCSR itself or, for a missing mirror that keeps its
// count and weight totals balanced, by Validate's symmetry check.
func TestInvalidCSRRejected(t *testing.T) {
	cases := []struct {
		name  string
		off   []int32
		edges []Edge
		vw    []int32
		// mirror marks the violation ResetCSR leaves to Validate.
		mirror bool
	}{
		{name: "empty offsets"},
		{name: "offsets start nonzero", off: []int32{1, 1}},
		{name: "offsets decrease", off: []int32{0, 2, 1, 2}, edges: make([]Edge, 2)},
		{name: "offsets miss edge count", off: []int32{0, 1}, edges: nil},
		// An interior offset past the half-edges; the last one still
		// matches their count.
		{name: "offset past edges",
			off:   []int32{0, 10, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
			edges: []Edge{{To: 1, W: 1}, {To: 2, W: 1}}},
		{name: "neighbor out of range", off: []int32{0, 1, 2}, edges: []Edge{{To: 5, W: 1}, {To: 0, W: 1}}},
		{name: "self loop", off: []int32{0, 1, 2}, edges: []Edge{{To: 0, W: 1}, {To: 1, W: 1}}},
		{name: "duplicate edge", off: []int32{0, 2, 4},
			edges: []Edge{{To: 1, W: 1}, {To: 1, W: 1}, {To: 0, W: 1}, {To: 0, W: 1}}},
		{name: "non-positive weight", off: []int32{0, 1, 2}, edges: []Edge{{To: 1, W: 0}, {To: 0, W: 0}}},
		{name: "asymmetric missing reverse", off: []int32{0, 1, 1, 2},
			edges: []Edge{{To: 1, W: 1}, {To: 0, W: 1}}, mirror: true},
		{name: "asymmetric weight mismatch", off: []int32{0, 1, 2},
			edges: []Edge{{To: 1, W: 1}, {To: 0, W: 2}}},
		// The path 0–1–2 with the backward half-edge 2→1 weighing 129:
		// the half-edges weigh 132, not twice the forward edges' 2.
		{name: "backward weight unbalanced", off: []int32{0, 1, 3, 4},
			edges: []Edge{{To: 1, W: 1}, {To: 0, W: 1}, {To: 2, W: 1}, {To: 1, W: 129}}},
		{name: "bad vertex weight count", off: []int32{0, 0, 0}, vw: []int32{1}},
		{name: "non-positive vertex weight", off: []int32{0, 0}, vw: []int32{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var g Graph
			err := g.ResetCSR(tc.off, tc.edges, tc.vw)
			if err == nil && tc.mirror {
				err = g.Validate()
			}
			if err == nil {
				t.Fatal("invalid CSR arrays accepted")
			}
		})
	}
}

// TestResetCSRReuse: a Graph value re-initialized in place serves a
// sequence of different graphs correctly, with no allocations at all.
func TestResetCSRReuse(t *testing.T) {
	want := buildSample(t)
	off, edges, vw := csrFromBuilder(t, want)
	var g Graph
	if err := g.ResetCSR(off, edges, vw); err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(want, &g) {
		t.Fatal("ResetCSR graph differs from Builder graph")
	}
	// Shrink to a triangle in place, then back.
	tri := NewBuilder(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	wantTri, err := tri.Build()
	if err != nil {
		t.Fatal(err)
	}
	toff, tedges, _ := csrFromBuilder(t, wantTri)
	if err := g.ResetCSR(toff, tedges, nil); err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(wantTri, &g) {
		t.Fatal("ResetCSR shrink differs")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := g.ResetCSR(off, edges, vw); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm ResetCSR allocates %v times per run, want 0", allocs)
	}
}

// TestResetCSRRejectsUnsorted: the trusted path still rejects rows that
// are not strictly sorted (the duplicate-subsuming check).
func TestResetCSRRejectsUnsorted(t *testing.T) {
	var g Graph
	err := g.ResetCSR([]int32{0, 2, 3, 4},
		[]Edge{{To: 2, W: 1}, {To: 1, W: 1}, {To: 0, W: 1}, {To: 0, W: 1}}, nil)
	if err == nil {
		t.Fatal("ResetCSR accepted an unsorted row")
	}
}
