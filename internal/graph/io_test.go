package graph

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/rng"
)

// graphsEqual compares two graphs structurally.
func graphsEqual(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := int32(0); int(v) < a.N(); v++ {
		if a.VertexWeight(v) != b.VertexWeight(v) {
			return false
		}
		if len(a.Neighbors(v)) != len(b.Neighbors(v)) {
			return false
		}
		for i, e := range a.Neighbors(v) {
			f := b.Neighbors(v)[i]
			if e != f {
				return false
			}
		}
	}
	return true
}

func TestEdgeListRoundTrip(t *testing.T) {
	r := rng.NewFib(1)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(40)
		g := randomGraph(r, n, r.Intn(3*n))
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v\n", trial, err)
		}
		if !graphsEqual(g, got) {
			t.Fatalf("trial %d: round trip changed the graph", trial)
		}
	}
}

func TestEdgeListRoundTripVertexWeights(t *testing.T) {
	b := NewBuilder(4)
	b.AddWeightedEdge(0, 1, 3)
	b.AddEdge(2, 3)
	b.SetVertexWeight(0, 2)
	b.SetVertexWeight(3, 7)
	g := b.MustBuild()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, got) {
		t.Fatal("weighted round trip changed the graph")
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# a comment\n\ngraph 3 2\ne 0 1\n# another\ne 1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"missing header", "e 0 1\n"},
		{"duplicate header", "graph 2 0\ngraph 2 0\n"},
		{"bad n", "graph x 0\n"},
		{"bad m", "graph 2 y\n"},
		{"edge count mismatch", "graph 3 5\ne 0 1\n"},
		{"malformed edge", "graph 2 1\ne 0\n"},
		{"bad weight", "graph 2 1\ne 0 1 z\n"},
		{"unknown record", "graph 2 0\nq 1 2\n"},
		{"empty", ""},
		{"self loop", "graph 2 1\ne 1 1\n"},
		{"vertex before header", "v 0 2\n"},
		{"malformed vertex", "graph 2 0 vweights\nv 0\n"},
	}
	for _, tc := range cases {
		if _, err := ReadEdgeList(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}
