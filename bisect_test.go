package bisect_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	bisect "repro"
)

// The façade tests exercise the public API exactly as the README's
// quickstart does, so a user following the docs is covered by CI.

func TestQuickstartFlow(t *testing.T) {
	g, err := bisect.BReg(200, 8, 3, bisect.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	alg, err := bisect.NewBisector("ckl")
	if err != nil {
		t.Fatal(err)
	}
	b, err := alg.Bisect(g, bisect.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if b.Imbalance() != 0 {
		t.Fatalf("imbalance %d", b.Imbalance())
	}
	if b.Cut() <= 0 || b.Cut() > int64(g.M()) {
		t.Fatalf("cut %d out of range", b.Cut())
	}
}

func TestAllRegisteredBisectorsViaFacade(t *testing.T) {
	g, err := bisect.Grid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range bisect.BisectorNames() {
		if name == "sa" || name == "csa" {
			continue // covered with a fast schedule below
		}
		alg, err := bisect.NewBisector(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := alg.Bisect(g, bisect.NewRand(3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	fast := bisect.SA{Opts: bisect.SAOptions{SizeFactor: 2, TempFactor: 0.85, FreezeLim: 2, MaxTemps: 50}}
	for _, alg := range []bisect.Bisector{fast, bisect.Compacted{Inner: fast}} {
		b, err := alg.Bisect(g, bisect.NewRand(4))
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
	}
}

func TestFacadeGenerators(t *testing.T) {
	r := bisect.NewRand(5)
	checks := []struct {
		name string
		g    *bisect.Graph
		err  error
	}{}
	add := func(name string, g *bisect.Graph, err error) {
		checks = append(checks, struct {
			name string
			g    *bisect.Graph
			err  error
		}{name, g, err})
	}
	g1, e1 := bisect.GNP(50, 0.1, r)
	add("gnp", g1, e1)
	g2, e2 := bisect.TwoSet(60, 0.1, 0.1, 5, r)
	add("twoset", g2, e2)
	g3, e3 := bisect.BReg(60, 4, 3, r)
	add("breg", g3, e3)
	g4, e4 := bisect.Path(5)
	add("path", g4, e4)
	g5, e5 := bisect.Cycle(5)
	add("cycle", g5, e5)
	g6, e6 := bisect.CycleCollection([]int{3, 4})
	add("cycles", g6, e6)
	g7, e7 := bisect.Ladder(5)
	add("ladder", g7, e7)
	g8, e8 := bisect.Ladder3N(5)
	add("ladder3n", g8, e8)
	g9, e9 := bisect.Grid(3, 4)
	add("grid", g9, e9)
	g11, e11 := bisect.CompleteBinaryTree(7)
	add("btree", g11, e11)
	g12, e12 := bisect.Hypercube(3)
	add("hypercube", g12, e12)
	g13, e13 := bisect.Complete(5)
	add("complete", g13, e13)
	g14, e14 := bisect.CompleteBipartite(2, 3)
	add("bipartite", g14, e14)
	g15, e15 := bisect.Caterpillar(3, 2)
	add("caterpillar", g15, e15)
	g16, e16 := bisect.RandomRegular(10, 3, r)
	add("regular", g16, e16)
	for _, c := range checks {
		if c.err != nil {
			t.Fatalf("%s: %v", c.name, c.err)
		}
		if err := c.g.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

func TestFacadeIO(t *testing.T) {
	g, err := bisect.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bisect.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := bisect.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.M() != g.M() {
		t.Fatal("edge-list round trip mismatch")
	}
	buf.Reset()
	if err := bisect.WriteCSRFile(&buf, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.el")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, release, err := bisect.LoadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if loaded.N() != g.N() || loaded.M() != g.M() {
		t.Fatal("BCSR load mismatch")
	}
}

func TestFacadeExactAndPrimitives(t *testing.T) {
	g, err := bisect.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	w, side, err := bisect.ExactBisectionWidth(g)
	if err != nil {
		t.Fatal(err)
	}
	if w != 2 || bisect.CutOf(g, side) != 2 {
		t.Fatalf("exact width %d", w)
	}
	cw, err := bisect.CycleCollectionWidth(g)
	if err != nil || cw != 2 {
		t.Fatalf("cycle width %d, %v", cw, err)
	}
	hem := bisect.HeavyEdgeMatching(g, bisect.NewRand(6))
	if len(hem) != 8 {
		t.Fatal("heavy-edge matching length")
	}
	b, err := bisect.NewBisection(g, []uint8{0, 1, 1, 1, 1, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	bisect.RepairBalance(b, 0)
	if b.Imbalance() != 0 {
		t.Fatal("repair failed")
	}
}

func TestFacadeExtensions(t *testing.T) {
	// Best-of, tree DP, spectral bound and relabeling, all through the
	// public API.
	g, err := bisect.Grid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := bisect.BestOf{Inner: bisect.KL{}, Starts: 3}.Bisect(g, bisect.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if pb.Imbalance() != 0 {
		t.Fatal("best-of unbalanced")
	}
	tree, err := bisect.CompleteBinaryTree(14)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := bisect.TreeBisectionWidth(tree)
	if err != nil {
		t.Fatal(err)
	}
	if w != 1 {
		t.Fatalf("tree width %d, want 1", w)
	}
	lb, err := bisect.SpectralLowerBound(g, bisect.SpectralOptions{}, bisect.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 || lb > 8.01 {
		t.Fatalf("spectral bound %v vs known width 8", lb)
	}
	perm := make([]int32, g.N())
	for i := range perm {
		perm[i] = int32(g.N() - 1 - i)
	}
	if _, err := bisect.PermuteGraph(g, perm); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeRemainingWrappers(t *testing.T) {
	p, err := bisect.TwoSetForAvgDegree(200, 3, 8)
	if err != nil || p <= 0 {
		t.Fatalf("TwoSetForAvgDegree: %v %v", p, err)
	}
}

func TestFacadeBisectionConstruction(t *testing.T) {
	g, err := bisect.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bisect.NewBisection(g, []uint8{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if b.Cut() != 1 {
		t.Fatalf("cut %d", b.Cut())
	}
	if _, err := bisect.NewBisector("nope"); err == nil {
		t.Fatal("unknown bisector accepted")
	}
}
