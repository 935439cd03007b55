package graph_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// equalGraphs compares two graphs through the public accessors — the
// same surface the algorithms consume.
func equalGraphs(t *testing.T, name string, a, b *graph.Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("%s: size mismatch: (%d,%d) vs (%d,%d)", name, a.N(), a.M(), b.N(), b.M())
	}
	if a.TotalEdgeWeight() != b.TotalEdgeWeight() || a.TotalVertexWeight() != b.TotalVertexWeight() ||
		a.MaxDegree() != b.MaxDegree() || a.MaxWeightedDegree() != b.MaxWeightedDegree() ||
		a.MaxVertexWeight() != b.MaxVertexWeight() {
		t.Fatalf("%s: aggregate mismatch", name)
	}
	for v := int32(0); int(v) < a.N(); v++ {
		if a.Degree(v) != b.Degree(v) || a.WeightedDegree(v) != b.WeightedDegree(v) || a.VertexWeight(v) != b.VertexWeight(v) {
			t.Fatalf("%s: per-vertex mismatch at %d", name, v)
		}
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("%s: neighbor count mismatch at %d", name, v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("%s: neighbors of %d differ at slot %d", name, v, i)
			}
		}
	}
}

// roundTrip writes g to a BCSR file and loads it back through
// OpenCSRFile and through LoadFile, checking each against the original.
func roundTrip(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.csr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteCSRFile(f, g); err != nil {
		t.Fatalf("%s: WriteCSRFile: %v", name, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := graph.OpenCSRFile(path)
	if err != nil {
		t.Fatalf("%s: OpenCSRFile: %v", name, err)
	}
	mg := c.Graph()
	if err := mg.Validate(); err != nil {
		t.Fatalf("%s: mapped graph invalid: %v", name, err)
	}
	equalGraphs(t, name+"/mmap", g, mg)

	lg, release, err := graph.LoadFile(path)
	if err != nil {
		t.Fatalf("%s: LoadFile: %v", name, err)
	}
	equalGraphs(t, name+"/load", g, lg)
	if err := release(); err != nil {
		t.Fatalf("%s: release: %v", name, err)
	}

	if err := c.Close(); err != nil {
		t.Fatalf("%s: Close: %v", name, err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("%s: second Close: %v", name, err)
	}
}

// TestCSRFileRoundTripGenerators exercises the BCSR writer and both
// load paths on every generator family from the paper's test suite.
func TestCSRFileRoundTripGenerators(t *testing.T) {
	families := []struct {
		name string
		make func(t *testing.T) *graph.Graph
	}{
		{"gnp", func(t *testing.T) *graph.Graph {
			g, err := gen.GNP(200, 0.05, rng.NewFib(1))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"twoset", func(t *testing.T) *graph.Graph {
			g, err := gen.TwoSet(200, 0.08, 0.02, 40, rng.NewFib(2))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"breg", func(t *testing.T) *graph.Graph {
			g, err := gen.BReg(400, 8, 4, rng.NewFib(3))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"regular", func(t *testing.T) *graph.Graph {
			g, err := gen.RandomRegular(150, 5, rng.NewFib(4))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			roundTrip(t, fam.name, fam.make(t))
		})
	}
}

// TestCSRFileRoundTripVariants covers the representation corners the
// generator families don't hit: weighted vertices and edges, tiny
// graphs, and an isolated vertex.
func TestCSRFileRoundTripVariants(t *testing.T) {
	weighted := func() *graph.Graph {
		b := graph.NewBuilder(6)
		b.AddWeightedEdge(0, 1, 3)
		b.AddWeightedEdge(1, 2, 7)
		b.AddWeightedEdge(2, 3, 1)
		b.AddWeightedEdge(3, 4, 9)
		b.AddWeightedEdge(4, 0, 2)
		b.SetVertexWeight(0, 5)
		b.SetVertexWeight(3, 11)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	t.Run("weighted", func(t *testing.T) { roundTrip(t, "weighted", weighted()) })
	t.Run("tiny", func(t *testing.T) {
		b := graph.NewBuilder(2)
		b.AddEdge(0, 1)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, "tiny", g)
	})
	t.Run("isolated", func(t *testing.T) {
		b := graph.NewBuilder(4)
		b.AddEdge(0, 1)
		b.AddEdge(1, 2)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, "isolated", g)
	})
}

// TestCSRFileRejectsCorruption feeds OpenCSRFile damaged images and
// requires every one to be rejected: the loader serves graphs straight
// out of untrusted bytes, so the validation sweep is the only thing
// standing between a forged file and a garbage partition.
func TestCSRFileRejectsCorruption(t *testing.T) {
	g, err := gen.GNP(60, 0.1, rng.NewFib(9))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteCSRFile(&buf, g); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	openBytes := func(t *testing.T, img []byte) error {
		t.Helper()
		path := filepath.Join(t.TempDir(), "bad.csr")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := graph.OpenCSRFile(path)
		if err == nil {
			c.Close()
		}
		return err
	}

	// Sanity: the pristine image loads.
	if err := openBytes(t, good); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}

	mutate := func(pos int, val byte) []byte {
		img := append([]byte(nil), good...)
		img[pos] = val
		return img
	}
	cases := []struct {
		name string
		img  []byte
	}{
		{"empty", nil},
		{"garbage", []byte("not a BCSR file at all")},
		{"truncated-header", good[:40]},
		{"truncated-body", good[:len(good)-8]},
		{"trailing-garbage", append(append([]byte(nil), good...), 0, 0, 0, 0, 0, 0, 0, 0)},
		{"bad-magic", mutate(0, 'X')},
		{"bad-flags", mutate(24, 0xFF)},
		{"wrong-n", mutate(8, good[8]+1)},
		{"wrong-ew", mutate(32, good[32]+1)},
		{"wrong-maxdeg", mutate(48, good[48]+1)},
		{"wrong-wdeg", mutate(len(good)-4, good[len(good)-4]+1)},
	}
	// Corrupt the first edge's head vertex: breaks sortedness, range,
	// or the wdeg cross-check depending on the value.
	edgeStart := 72 + ((int(60)+1)*4+7)&^7
	cases = append(cases,
		struct {
			name string
			img  []byte
		}{"corrupt-edge", mutate(edgeStart, good[edgeStart]^0x80)},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := openBytes(t, tc.img); err == nil {
				t.Fatal("corrupted image accepted")
			}
		})
	}
}
