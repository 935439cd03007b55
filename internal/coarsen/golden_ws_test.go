package coarsen

import (
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/trace"
)

// workspacePipeline routes the golden stages through an explicit
// workspace, exercising the direct-CSR kernel and the arena's buffer
// reuse.
func workspacePipeline(w *Workspace) goldenPipeline {
	return goldenPipeline{
		contract: func(g *graph.Graph, mate []int32) (*Contraction, error) {
			w.Reset()
			return w.Contract(g, mate)
		},
		compactOnce: func(g *graph.Graph, initial InitialFunc, r *rng.Rand, obs trace.Observer) (*partition.Bisection, error) {
			return w.CompactOnce(g, nil, initial, nil, r, obs)
		},
		multilevel: func(g *graph.Graph, initial InitialFunc, r *rng.Rand, obs trace.Observer) (*partition.Bisection, error) {
			return Multilevel(g, &MultilevelOptions{Observer: obs, Workspace: w}, initial, nil, r)
		},
	}
}

// TestGoldenCompactionVariants holds the workspace execution mode to
// the same fixture a fresh workspace per call is pinned to: one
// workspace reused across all cases and rounds (the multi-start steady
// state). The fixture was captured from the original graph.Builder
// contraction, so matching records prove the kernel and the arena
// reproduce it bit for bit.
func TestGoldenCompactionVariants(t *testing.T) {
	want := readGoldenFixture(t, filepath.Join("testdata", "compact_golden.json"))
	p := workspacePipeline(NewWorkspace())
	for round := 0; round < 2; round++ {
		for i, c := range goldenCases() {
			got, err := runGoldenCase(c, p)
			if err != nil {
				t.Fatalf("%s [round %d]: %v", c.Name, round, err)
			}
			if got != want[i] {
				t.Errorf("%s [round %d]:\n got %+v\nwant %+v", c.Name, round, got, want[i])
			}
		}
	}
}
