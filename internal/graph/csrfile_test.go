package graph_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
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

	openBytes := func(t *testing.T, img []byte) (string, error) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "bad.csr")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := graph.OpenCSRFile(path)
		if err == nil {
			c.Close()
		}
		return path, err
	}

	// Sanity: the pristine image loads.
	if _, err := openBytes(t, good); err != nil {
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
		{"truncated-header", good[:24]},
		{"truncated-body", good[:len(good)-8]},
		{"trailing-garbage", append(append([]byte(nil), good...), 0, 0, 0, 0, 0, 0, 0, 0)},
		{"bad-magic", mutate(0, 'X')},
		{"bad-flags", mutate(24, 0xFF)},
		{"wrong-n", mutate(8, good[8]+1)},
		// The header ends at byte 32; these two now land on off[0] and
		// off[4].
		{"wrong-ew", mutate(32, good[32]+1)},
		{"wrong-maxdeg", mutate(48, good[48]+1)},
		// The last half-edge leaves vertex 59 for a lower vertex: a
		// backward half-edge, whose weight 1 becomes 129.
		{"backward-weight", mutate(len(good)-4, good[len(good)-4]^0x80)},
	}
	// Corrupt the first edge's head vertex: breaks sortedness or range
	// depending on the value.
	edgeStart := 32 + ((int(60)+1)*4+7)&^7
	cases = append(cases,
		struct {
			name string
			img  []byte
		}{"corrupt-edge", mutate(edgeStart, good[edgeStart]^0x80)},
	)
	// Every refusal reads "graph: <path>: <reason>: corrupt BCSR image",
	// naming the package once, whichever check refused it.
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, err := openBytes(t, tc.img)
			if err == nil {
				t.Fatal("corrupted image accepted")
			}
			msg := err.Error()
			if !errors.Is(err, graph.ErrCorruptBCSR) ||
				!strings.HasPrefix(msg, "graph: "+path+": ") ||
				!strings.HasSuffix(msg, ": corrupt BCSR image") ||
				strings.Count(msg, "graph:") != 1 {
				t.Fatalf("refusal %q, want \"graph: %s: <reason>: corrupt BCSR image\"", msg, path)
			}
		})
	}
}

// TestCSRFileLayoutV2 pins the version 2 byte layout of
// docs/PERFORMANCE.md: a 32-byte header (magic, n, m, flags), then off,
// edges and vw, each padded to 8 bytes. The weighted path 0–1–2 must
// serialize to exactly the hand-written image and load back from it.
func TestCSRFileLayoutV2(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddWeightedEdge(0, 1, 5)
	b.AddWeightedEdge(1, 2, 7)
	b.SetVertexWeight(0, 2)
	b.SetVertexWeight(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		'B', 'C', 'S', 'R', 'G', '2', 0, 0, // magic
		3, 0, 0, 0, 0, 0, 0, 0, // n
		2, 0, 0, 0, 0, 0, 0, 0, // m
		2, 0, 0, 0, 0, 0, 0, 0, // flags: bit 1, vertex weights
		0, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, // off [0 1 3 4]
		1, 0, 0, 0, 5, 0, 0, 0, // edges: 0→1 weight 5
		0, 0, 0, 0, 5, 0, 0, 0, //        1→0 weight 5
		2, 0, 0, 0, 7, 0, 0, 0, //        1→2 weight 7
		1, 0, 0, 0, 7, 0, 0, 0, //        2→1 weight 7
		2, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, // vw [2 1 3]
		0, 0, 0, 0, // padding to 8 bytes
	}
	var buf bytes.Buffer
	if err := graph.WriteCSRFile(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteCSRFile wrote\n%v\nwant\n%v", buf.Bytes(), want)
	}
	path := filepath.Join(t.TempDir(), "path3.csr")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := graph.OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	equalGraphs(t, "layout", g, c.Graph())
}

// TestCSRFileRefusesVersion1: an image of the retired version 1 layout,
// which also stored five header aggregates and a weighted-degree
// section, is refused by OpenCSRFile and by LoadFile with
// ErrCorruptBCSR and a message that names its version; LoadFile never
// reads it as an edge list.
func TestCSRFileRefusesVersion1(t *testing.T) {
	u64 := func(b []byte, vs ...uint64) []byte {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	// The path 0–1–2 with unit weights: n, m, flags, then total edge
	// weight, total vertex weight, maximum degree, maximum weighted
	// degree and maximum vertex weight; off [0 1 3 4], four half-edges
	// and the weighted degrees [1 2 1].
	v1 := u64([]byte("BCSRG1\x00\x00"), 3, 2, 0, 2, 3, 2, 2, 1)
	v1 = append(v1, 0, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0)
	v1 = append(v1,
		1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
		2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0)
	v1 = u64(v1, 1, 2, 1)
	path := filepath.Join(t.TempDir(), "path3.v1.csr")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, graph.ErrCorruptBCSR) || !strings.Contains(err.Error(), `BCSR version "1"`) {
			t.Errorf("%s on a version 1 image: got %v, want ErrCorruptBCSR naming version 1", name, err)
		}
	}
	c, err := graph.OpenCSRFile(path)
	if err == nil {
		c.Close()
	}
	check("OpenCSRFile", err)
	_, release, err := graph.LoadFile(path)
	if err == nil {
		release()
	}
	check("LoadFile", err)
}
