// Package core assembles the repository's bisection algorithms behind a
// single Bisector interface and provides the composed methods the paper
// evaluates:
//
//   - KL — Kernighan–Lin from a random start (Section III);
//   - SA — simulated annealing from a random start (Section II);
//   - CKL / CSA — compacted KL / SA (Section V): contract a random
//     maximal matching, bisect the contracted graph, project back, and
//     finish on the original graph;
//
// plus the extensions used as baselines and ablations: multilevel
// (recursive compaction) KL and SA, spectral (Fiedler median split), and
// random assignment.
//
// All algorithms are deterministic functions of the supplied rng.Rand.
//
// Algorithms and drivers that can report their dynamics implement
// Observable; WithObserver attaches a trace.Observer to any Bisector
// (a no-op for baselines). Every run executes on one goroutine, so its
// event stream is a deterministic function of the seed — see
// internal/trace and docs/OBSERVABILITY.md.
package core

import (
	"fmt"

	"repro/internal/anneal"
	"repro/internal/coarsen"
	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/runctl"
	"repro/internal/spectral"
	"repro/internal/trace"
)

// Bisector produces a balanced bisection of a graph. Implementations must
// be deterministic given the random source and must return a bisection of
// exactly the argument graph, balanced to the parity minimum for
// unit-weight graphs.
type Bisector interface {
	// Name returns a short stable identifier ("kl", "csa", ...).
	Name() string
	// Bisect partitions g.
	Bisect(g *graph.Graph, r *rng.Rand) (*partition.Bisection, error)
}

// Observable is a Bisector whose runs can report trace events. All the
// algorithmic bisectors (KL, SA) and the composing drivers (Compacted,
// Multilevel, BestOf) implement it; the trivial baselines (Random,
// Spectral) have no interior dynamics to report and do not.
type Observable interface {
	Bisector
	// WithObserver returns a copy of the bisector whose runs report to
	// obs. The receiver is not modified, and the returned bisector
	// produces exactly the same bisections (observers never touch the
	// random stream).
	WithObserver(obs trace.Observer) Bisector
}

// WithObserver attaches obs to b if b is Observable; otherwise it
// returns b unchanged. A nil obs also returns b unchanged, preserving
// the nil fast path.
func WithObserver(b Bisector, obs trace.Observer) Bisector {
	if obs == nil {
		return b
	}
	if o, ok := b.(Observable); ok {
		return o.WithObserver(obs)
	}
	return b
}

// Reusable is a Bisector whose repeated runs can share a reusable
// workspace (gain buckets, swap logs, undo logs, solver bases, scratch
// arrays) so that steady-state runs allocate little or nothing. The
// algorithmic refiners (KL, SA), Spectral's eigensolver and the composing
// drivers (Compacted, Multilevel, BestOf) implement it; Random holds no
// reusable state and does not.
type Reusable interface {
	Bisector
	// WithWorkspace returns a copy of the bisector owning a freshly
	// allocated private workspace that its runs reuse. Results are
	// identical with or without a workspace. The returned bisector is
	// not safe for concurrent use; create one per goroutine.
	WithWorkspace() Bisector
}

// WithWorkspace attaches a private reusable workspace to b if b is
// Reusable; otherwise it returns b unchanged. cmd/bisect wraps its
// BestOf in it once per run and the harness once per (row, algorithm);
// each bisectd worker wraps every algorithm once and runs BestOf over
// it. Every start after the first then runs allocation-free.
func WithWorkspace(b Bisector) Bisector {
	if ru, ok := b.(Reusable); ok {
		return ru.WithWorkspace()
	}
	return b
}

// WithParallel returns b unchanged: every run executes on one
// goroutine, and parallelism lives across harness rows and bisectd jobs.
//
// Deprecated: kept only for cmd/benchmark, its one caller; the next
// change to that benchmark removes both.
func WithParallel(b Bisector, degree int) Bisector { return b }

// withWorkspaceRefinable is WithWorkspace keeping the RefinableBisector
// interface (it holds for the concrete algorithms; the fallback covers
// exotic user implementations).
func withWorkspaceRefinable(b RefinableBisector) RefinableBisector {
	if rb, ok := WithWorkspace(b).(RefinableBisector); ok {
		return rb
	}
	return b
}

// withObserverRefinable attaches obs to b, keeping the RefinableBisector
// interface when the observed copy still satisfies it (it does for the
// concrete algorithms; the fallback covers exotic user implementations).
func withObserverRefinable(b RefinableBisector, obs trace.Observer) RefinableBisector {
	if rb, ok := WithObserver(b, obs).(RefinableBisector); ok {
		return rb
	}
	return b
}

// Random assigns sides uniformly at random under exact balance. It is the
// paper's initial-bisection generator and the weakest baseline.
type Random struct{}

// Name implements Bisector.
func (Random) Name() string { return "random" }

// Bisect implements Bisector.
func (Random) Bisect(g *graph.Graph, r *rng.Rand) (*partition.Bisection, error) {
	return partition.NewRandom(g, r), nil
}

// KL is plain Kernighan–Lin from a random balanced start.
type KL struct{ Opts kl.Options }

// Name implements Bisector.
func (KL) Name() string { return "kl" }

// Bisect implements Bisector.
func (a KL) Bisect(g *graph.Graph, r *rng.Rand) (*partition.Bisection, error) {
	b, _, err := kl.Run(g, a.Opts, r)
	return b, err
}

// SA is plain simulated annealing from a random balanced start.
type SA struct{ Opts anneal.Options }

// Name implements Bisector.
func (SA) Name() string { return "sa" }

// Bisect implements Bisector.
func (a SA) Bisect(g *graph.Graph, r *rng.Rand) (*partition.Bisection, error) {
	b, _, err := anneal.Run(g, a.Opts, r)
	return b, err
}

// Spectral is Fiedler-vector bisection (restarted Lanczos; see
// internal/spectral).
type Spectral struct{ Opts spectral.Options }

// Name implements Bisector.
func (Spectral) Name() string { return "spectral" }

// Bisect implements Bisector.
func (a Spectral) Bisect(g *graph.Graph, r *rng.Rand) (*partition.Bisection, error) {
	if g.N() == 0 {
		return partition.NewRandom(g, r), nil
	}
	b, err := spectral.Bisect(g, a.Opts, r)
	if err != nil && spectral.IsNotConverged(err) {
		// An exhausted matvec budget still yields a valid best-effort
		// bisection; campaign drivers (BestOf, the harness, bisectd)
		// treat bisector errors as fatal, so the typed quality warning
		// stops here. Library callers who care use spectral.Bisect,
		// which surfaces *ErrNotConverged alongside the result.
		return b, nil
	}
	return b, err
}

// WithWorkspace implements Reusable for Spectral: the solver workspace
// (Lanczos basis slab, matvec buffers, tridiagonal scratch) is reused
// across runs, so every warm solve allocates only the returned
// bisection.
func (a Spectral) WithWorkspace() Bisector {
	a.Opts.Workspace = spectral.NewWorkspace()
	return a
}

// Compacted wraps an inner Bisector with one level of the paper's
// compaction (Section V): (1) form a random maximal matching of G;
// (2) contract it to G′; (3) run the inner bisector on G′; (4) project
// the result back to G; (5) run the inner bisector's refinement on G
// starting from the projected bisection.
type Compacted struct {
	// Inner solves the contracted graph and refines the projection.
	Inner RefinableBisector
	// Match overrides the matching policy (default random maximal).
	Match coarsen.MatchFunc
	// Observer, when non-nil, receives the compaction's level_done
	// events. Use WithObserver to also attach it to Inner's runs.
	Observer trace.Observer
	// Workspace, when non-nil, is the reusable compaction arena the
	// match/contract/project pipeline runs in (see coarsen.Workspace);
	// WithWorkspace sets it. Results are identical with or without one.
	Workspace *coarsen.Workspace
}

// RefinableBisector is a Bisector that can also improve an existing
// bisection in place — needed by compaction's final phase, which starts
// the algorithm from the projected bisection instead of a random one.
type RefinableBisector interface {
	Bisector
	// Refine improves b in place.
	Refine(b *partition.Bisection, r *rng.Rand) error
}

// Refine implements RefinableBisector for KL.
func (a KL) Refine(b *partition.Bisection, r *rng.Rand) error {
	_, err := kl.Refine(b, a.Opts)
	return err
}

// Refine implements RefinableBisector for SA.
func (a SA) Refine(b *partition.Bisection, r *rng.Rand) error {
	_, err := anneal.Refine(b, a.Opts, r)
	return err
}

// WithObserver implements Observable for KL.
func (a KL) WithObserver(obs trace.Observer) Bisector {
	a.Opts.Observer = obs
	return a
}

// WithWorkspace implements Reusable for KL.
func (a KL) WithWorkspace() Bisector {
	a.Opts.Workspace = kl.NewRefiner()
	return a
}

// WithWorkspace implements Reusable for SA: the annealing workspace
// (vertex records, acceptance memo, undo log, best-state buffer) is
// reused across starts, making every run after the first
// allocation-free.
func (a SA) WithWorkspace() Bisector {
	a.Opts.Workspace = anneal.NewRefiner()
	return a
}

// WithWorkspace implements Reusable for Compacted: the inner bisector's
// workspace serves both the coarse solve and the final refinement (the
// workspace sizes itself to the larger graph and is reused as-is on the
// smaller one), and a coarsen.Workspace arena carries the matching,
// contraction, and projection, so steady-state compaction allocates
// only the returned bisection.
func (c Compacted) WithWorkspace() Bisector {
	c.Workspace = coarsen.NewWorkspace()
	if c.Inner != nil {
		c.Inner = withWorkspaceRefinable(c.Inner)
	}
	return c
}

// WithWorkspace implements Reusable for Multilevel: one inner workspace
// serves every level of the hierarchy, and a coarsen.Workspace arena
// carries every contraction and interior projection. The options are
// copied, never mutated in place.
func (m Multilevel) WithWorkspace() Bisector {
	var o coarsen.MultilevelOptions
	if m.Opts != nil {
		o = *m.Opts
	}
	o.Workspace = coarsen.NewWorkspace()
	m.Opts = &o
	if m.Inner != nil {
		m.Inner = withWorkspaceRefinable(m.Inner)
	}
	return m
}

// WithWorkspace implements Reusable for BestOf: it attaches one
// workspace to Inner, which every sequential start then reuses.
func (b BestOf) WithWorkspace() Bisector {
	if b.Inner != nil {
		b.Inner = WithWorkspace(b.Inner)
	}
	return b
}

// WithObserver implements Observable for SA.
func (a SA) WithObserver(obs trace.Observer) Bisector {
	a.Opts.Observer = obs
	return a
}

// WithObserver implements Observable for Compacted: obs receives the
// compaction's own level_done events plus the inner bisector's events
// from both the coarse solve and the final refinement.
func (c Compacted) WithObserver(obs trace.Observer) Bisector {
	c.Observer = obs
	if c.Inner != nil {
		c.Inner = withObserverRefinable(c.Inner, obs)
	}
	return c
}

// WithObserver implements Observable for Multilevel: obs receives one
// level_done per coarsening and uncoarsening level plus the inner
// bisector's events at every level. The options are copied, never
// mutated in place.
func (m Multilevel) WithObserver(obs trace.Observer) Bisector {
	var o coarsen.MultilevelOptions
	if m.Opts != nil {
		o = *m.Opts
	}
	o.Observer = obs
	m.Opts = &o
	if m.Inner != nil {
		m.Inner = withObserverRefinable(m.Inner, obs)
	}
	return m
}

// Name implements Bisector.
func (c Compacted) Name() string { return "c" + c.Inner.Name() }

// Bisect implements Bisector.
func (c Compacted) Bisect(g *graph.Graph, r *rng.Rand) (*partition.Bisection, error) {
	if c.Inner == nil {
		return nil, fmt.Errorf("core: Compacted with nil inner bisector")
	}
	var stopErr error
	initial := func(cg *graph.Graph, rr *rng.Rand) *partition.Bisection {
		b, err := c.Inner.Bisect(cg, rr)
		if err != nil {
			if runctl.IsStop(err) && b != nil {
				// Interrupted, not failed: the inner run's best-so-far is a
				// valid coarse bisection — keep it and carry the sentinel.
				stopErr = err
				return b
			}
			return partition.NewRandom(cg, rr) // degrade gracefully
		}
		return b
	}
	var start *partition.Bisection
	var err error
	if c.Workspace != nil {
		start, err = c.Workspace.CompactOnce(g, c.Match, initial, nil, r, c.Observer)
	} else {
		start, err = coarsen.CompactOnce(g, c.Match, initial, nil, r, c.Observer)
	}
	if err != nil {
		return nil, err
	}
	// The final refinement polls the same control through the inner
	// bisector; an interrupted refinement leaves start at its last
	// completed checkpoint, which is exactly the result we want to keep.
	if err := c.Inner.Refine(start, r); err != nil {
		if !runctl.IsStop(err) {
			return nil, err
		}
		if stopErr == nil {
			stopErr = err
		}
	}
	partition.RepairBalance(start, partition.MinAchievableImbalance(g.TotalVertexWeight()))
	return start, stopErr
}

// Multilevel runs the recursive-compaction pipeline with the inner
// bisector solving the coarsest graph and refining at every level.
type Multilevel struct {
	Inner RefinableBisector
	Opts  *coarsen.MultilevelOptions
}

// Name implements Bisector. SpectralInit variants append "+spec"
// ("mlkl+spec"), matching their registry names.
func (m Multilevel) Name() string {
	n := "ml" + m.Inner.Name()
	if m.Opts != nil && m.Opts.SpectralInit {
		n += "+spec"
	}
	return n
}

// Bisect implements Bisector.
func (m Multilevel) Bisect(g *graph.Graph, r *rng.Rand) (*partition.Bisection, error) {
	if m.Inner == nil {
		return nil, fmt.Errorf("core: Multilevel with nil inner bisector")
	}
	var stopErr error
	initial := func(cg *graph.Graph, rr *rng.Rand) *partition.Bisection {
		b, err := m.Inner.Bisect(cg, rr)
		if err != nil {
			if runctl.IsStop(err) && b != nil {
				stopErr = err
				return b
			}
			return partition.NewRandom(cg, rr)
		}
		return b
	}
	refine := func(b *partition.Bisection, rr *rng.Rand) {
		// A stop during a level's refinement leaves b at its last
		// checkpoint; later levels stop at their first poll. Keep the
		// first sentinel so the truncated result is reported as such.
		if err := m.Inner.Refine(b, rr); runctl.IsStop(err) && stopErr == nil {
			stopErr = err
		}
	}
	b, err := coarsen.Multilevel(g, m.Opts, initial, refine, r)
	if err != nil {
		if !runctl.IsStop(err) || b == nil {
			return nil, err
		}
		// The driver stopped mid-coarsening but still projected a valid
		// bisection back to g; keep it and carry the sentinel.
		stopErr = err
	}
	partition.RepairBalance(b, partition.MinAchievableImbalance(g.TotalVertexWeight()))
	return b, stopErr
}

// BestOf runs the inner bisector k times, one start after another on
// the one random stream, and keeps the lowest cut — the paper's
// best-of-two-starts protocol is BestOf{Inner, 2}. Every start runs
// Inner as given: WithWorkspace(BestOf{…}) attaches one workspace that
// all the starts share, and a BestOf over an Inner that already owns a
// workspace (bisectd's per-worker bisectors) reuses that one.
type BestOf struct {
	Inner  Bisector
	Starts int
	// Observer, when non-nil, receives the inner runs' events (stamped
	// with their start index) and a final run_done with the kept cut,
	// whose Index is the number of starts run: fewer than Starts when
	// the control stopped the run.
	Observer trace.Observer
	// Control, when non-nil, is polled (without consuming budget) between
	// starts, and interrupted inner runs' best-so-far results stay in the
	// running for the kept cut; WithControl sets it and shares the same
	// control with the inner bisector.
	Control *runctl.Control
}

// Name implements Bisector.
func (b BestOf) Name() string { return fmt.Sprintf("%s×%d", b.Inner.Name(), b.Starts) }

// WithObserver implements Observable.
func (b BestOf) WithObserver(obs trace.Observer) Bisector {
	b.Observer = obs
	return b
}

// Bisect implements Bisector.
func (b BestOf) Bisect(g *graph.Graph, r *rng.Rand) (*partition.Bisection, error) {
	if b.Inner == nil {
		return nil, fmt.Errorf("core: BestOf with nil inner bisector")
	}
	starts := b.Starts
	if starts <= 0 {
		starts = 1
	}
	var best *partition.Bisection
	var stopErr error
	ran := 0
	for i := 0; i < starts; i++ {
		// Poll between starts, never before the first: an already-stopped
		// control still yields one valid candidate from the inner run's
		// own checkpoints. Err never consumes checkpoint budget, so the
		// driver's polls don't perturb the leaf algorithms' accounting.
		if i > 0 {
			if stopErr = b.Control.Err(); stopErr != nil {
				break
			}
		}
		inner := b.Inner
		if b.Observer != nil {
			// Starts run sequentially on one stream, so events can flow
			// straight through; only the start stamp is added.
			inner = WithObserver(inner, trace.WithStart(b.Observer, i))
		}
		cand, err := inner.Bisect(g, r)
		ran++
		if err != nil {
			if !runctl.IsStop(err) || cand == nil {
				return nil, err
			}
			stopErr = err
		}
		if best == nil || cand.Cut() < best.Cut() {
			best = cand
		}
		if stopErr != nil {
			break
		}
	}
	if b.Observer != nil && best != nil {
		b.Observer.Observe(trace.Event{
			Type: trace.TypeRunDone, Algo: b.Name(), Index: ran,
			Cut: best.Cut(), BestCut: best.Cut(), Imbalance: best.Imbalance(),
		})
	}
	return best, stopErr
}

// New returns the named algorithm with default options. Recognized names:
// random, kl, sa, spectral, ckl, csa, mlkl, mlsa and mlkl+spec. mlkl+spec
// seeds the coarsest level from the spectral (Fiedler median) split
// instead of a random start. mlkl and mlkl+spec bound their KL passes
// with kl.MultilevelLookahead; kl and ckl run Figure 2 in full.
func New(name string) (Bisector, error) {
	switch name {
	case "random":
		return Random{}, nil
	case "kl":
		return KL{}, nil
	case "sa":
		return SA{}, nil
	case "spectral":
		return Spectral{}, nil
	case "ckl":
		return Compacted{Inner: KL{}}, nil
	case "csa":
		return Compacted{Inner: SA{}}, nil
	case "mlkl":
		return Multilevel{Inner: mlKL}, nil
	case "mlsa":
		return Multilevel{Inner: SA{}}, nil
	case "mlkl+spec":
		return Multilevel{Inner: mlKL, Opts: &coarsen.MultilevelOptions{SpectralInit: true}}, nil
	default:
		return nil, fmt.Errorf("core: unknown bisector %q (have %v)", name, Names())
	}
}

// mlKL is the inner bisector of the registry's multilevel KL variants:
// KL whose passes on levels above 2·kl.MultilevelLookahead vertices stop
// early once they have improved (see kl.Options.Lookahead).
var mlKL = KL{Opts: kl.Options{Lookahead: kl.MultilevelLookahead}}

// Names lists the registry's algorithm names in sorted order.
func Names() []string {
	return []string{"ckl", "csa", "kl", "mlkl", "mlkl+spec", "mlsa", "random", "sa", "spectral"}
}

// HeavyEdgeMatch adapts matching.HeavyEdge to coarsen.MatchFunc, for the
// matching-policy ablation.
func HeavyEdgeMatch(g *graph.Graph, r *rng.Rand) []int32 { return matching.HeavyEdge(g, r) }
