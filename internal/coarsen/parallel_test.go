package coarsen

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
)

// lowerParThresholds drops the contraction's parallel gate for the
// duration of a test so moderate instances exercise the sharded path.
func lowerParThresholds(t *testing.T) {
	t.Helper()
	saved := ParallelMinVertices
	ParallelMinVertices = 1
	t.Cleanup(func() { ParallelMinVertices = saved })
}

// TestParallelContractByteIdentity pins the sharded kernel's contract:
// for any shard count, the coarse graph is byte-identical to the serial
// kernel's — same offsets, same rows, same aggregates.
func TestParallelContractByteIdentity(t *testing.T) {
	lowerParThresholds(t)
	g, err := gen.GNP(4000, 0.002, rng.NewFib(8))
	if err != nil {
		t.Fatal(err)
	}
	mate := matching.RandomMaximal(g, rng.NewFib(4))

	serial := NewWorkspace()
	cs, err := serial.Contract(g, mate)
	if err != nil {
		t.Fatal(err)
	}

	for _, degree := range []int{2, 3, 4, 8} {
		w := NewWorkspace()
		w.SetParallel(degree)
		cp, err := w.Contract(g, mate)
		if err != nil {
			t.Fatalf("degree %d: %v", degree, err)
		}
		a, b := cs.Coarse, cp.Coarse
		if a.N() != b.N() || a.M() != b.M() || a.TotalEdgeWeight() != b.TotalEdgeWeight() {
			t.Fatalf("degree %d: coarse graph shape differs", degree)
		}
		for v := int32(0); int(v) < a.N(); v++ {
			na, nb := a.Neighbors(v), b.Neighbors(v)
			if len(na) != len(nb) {
				t.Fatalf("degree %d: row %d length differs", degree, v)
			}
			for i := range na {
				if na[i] != nb[i] {
					t.Fatalf("degree %d: row %d slot %d differs: %v vs %v", degree, v, i, na[i], nb[i])
				}
			}
			if a.VertexWeight(v) != b.VertexWeight(v) {
				t.Fatalf("degree %d: vertex weight %d differs", degree, v)
			}
		}
		w.Close()
	}
}

// TestParallelMultilevelMatchesSerial runs the full multilevel pipeline
// at several degrees and requires the exact same final bisection: the
// matching is serial at every degree and the contraction is
// byte-identical, so the whole pipeline must be too.
func TestParallelMultilevelMatchesSerial(t *testing.T) {
	lowerParThresholds(t)
	g, err := gen.GNP(3000, 0.003, rng.NewFib(12))
	if err != nil {
		t.Fatal(err)
	}
	initial := func(cg *graph.Graph, r *rng.Rand) *partition.Bisection { return partition.NewRandom(cg, r) }

	run := func(degree int) []uint8 {
		w := NewWorkspace()
		defer w.Close()
		b, err := Multilevel(g, &MultilevelOptions{Workspace: w, ParallelDegree: degree},
			initial, nil, rng.NewFib(77))
		if err != nil {
			t.Fatalf("degree %d: %v", degree, err)
		}
		return append([]uint8(nil), b.SidesRef()...)
	}
	ref := run(1)
	for _, degree := range []int{2, 3, 4, 8} {
		got := run(degree)
		for v := range got {
			if got[v] != ref[v] {
				t.Fatalf("degree %d diverges from degree 1 at vertex %d", degree, v)
			}
		}
	}
}

// TestParallelContractSteadyAllocs gates the zero-allocation contract
// of the sharded kernel (run by scripts/check.sh).
func TestParallelContractSteadyAllocs(t *testing.T) {
	lowerParThresholds(t)
	g, err := gen.GNP(3000, 0.003, rng.NewFib(6))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkspace()
	w.SetParallel(4)
	defer w.Close()
	r := rng.NewFib(9)
	if avg := testing.AllocsPerRun(20, func() {
		w.Reset()
		mate := w.RandomMaximal(g, r)
		if _, err := w.Contract(g, mate); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("parallel match+contract allocates %.1f per run in steady state", avg)
	}
}
