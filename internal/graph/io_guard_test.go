package graph

import (
	"strings"
	"testing"
)

// Hostile headers and wrapping ids must be rejected with an error — in
// particular, 64-bit values that would silently wrap into range when
// narrowed to int32 (e.g. 2³² + 1 → 1) must never parse into a
// structurally valid but wrong graph.
func TestReadEdgeListRejectsHostileInput(t *testing.T) {
	for _, in := range []string{
		"graph 2 -1\n",
		"graph 2 999999999999\ne 0 1\n",
		"graph 134217729 0\n",         // MaxVertices+1
		"graph 2 1\ne 4294967297 1\n", // wraps to vertex 1
		"graph 2 1\ne 0 4294967297\n",
		"graph 2 1\ne 0 1 4294967297\n", // wraps to weight 1
		"graph 2 1 vweights\nv 0 4294967298\ne 0 1\n",
		"graph 3 2\ne 0 1\ne 1\n", // truncated edge record
	} {
		if g, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("ReadEdgeList accepted %q (n=%d m=%d)", in, g.N(), g.M())
		}
	}
}

func TestReadMETISRejectsHostileInput(t *testing.T) {
	for _, in := range []string{
		"2 -1\n",
		"2 999999999999\n",
		"134217729 0\n",     // MaxVertices+1
		"3 1\n4294967298\n", // wraps to neighbor 2
		"3 1\n9\n",          // neighbor past n
		"2 1 1\n2\n",        // fmt declares edge weights, none present
		"2 x\n",
	} {
		if g, err := ReadMETIS(strings.NewReader(in)); err == nil {
			t.Errorf("ReadMETIS accepted %q (n=%d m=%d)", in, g.N(), g.M())
		}
	}
}
