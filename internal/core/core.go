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
// WithObserver, WithControl and WithWorkspace attach a trace observer, a
// run control and a reusable workspace to any Bisector; the drivers hand
// each to the bisector they wrap. Every run executes on one goroutine,
// so its event stream is a deterministic function of the seed — see
// internal/trace and docs/OBSERVABILITY.md.
package core

import (
	"fmt"

	"repro/internal/anneal"
	"repro/internal/coarsen"
	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/runctl"
	"repro/internal/spectral"
	"repro/internal/trace"
)

// Bisector produces a balanced bisection of a graph. Implementations must
// be deterministic given the random source and must return a bisection of
// exactly the argument graph whose weight imbalance is at most the
// graph's largest vertex weight: the parity minimum for unit-weight
// graphs. Every registry entry ends in partition.RepairBalance or, for
// random, assigns each vertex to the lighter side.
type Bisector interface {
	// Name returns a short stable identifier ("kl", "csa", ...).
	Name() string
	// Bisect partitions g.
	Bisect(g *graph.Graph, r *rng.Rand) (*partition.Bisection, error)
}

// companions are what WithObserver, WithControl and WithWorkspace
// attach to a bisector: a trace observer, a run control, and whether to
// give it a fresh private workspace. A zero field attaches nothing.
type companions struct {
	obs       trace.Observer
	ctl       *runctl.Control
	workspace bool
}

// attacher is a Bisector that takes companions: its attach returns a
// copy that keeps the companions its own runs use and passes them on to
// the bisector it wraps. The receiver is never modified.
type attacher interface {
	attach(c companions) Bisector
}

// attach attaches c to b, or returns b unchanged when b takes no
// companions (Random, or a caller's own Bisector).
func attach(b Bisector, c companions) Bisector {
	if a, ok := b.(attacher); ok {
		return a.attach(c)
	}
	return b
}

// attachRefinable is attach keeping the RefinableBisector interface (it
// holds for the concrete algorithms; the fallback covers exotic user
// implementations).
func attachRefinable(b RefinableBisector, c companions) RefinableBisector {
	if rb, ok := attach(b, c).(RefinableBisector); ok {
		return rb
	}
	return b
}

// WithObserver returns a copy of b whose runs, and the runs of every
// bisector it wraps, report trace events to obs. Observers never touch
// the random stream, so the copy produces exactly b's bisections. KL,
// SA and the drivers report events; Random and Spectral have no
// interior dynamics and report none. A nil obs returns b unchanged,
// preserving the nil fast path.
func WithObserver(b Bisector, obs trace.Observer) Bisector {
	if obs == nil {
		return b
	}
	return attach(b, companions{obs: obs})
}

// WithWorkspace returns a copy of b, and of every bisector it wraps,
// owning a freshly allocated private workspace (gain buckets, swap and
// undo logs, solver bases, compaction arenas) that its runs reuse, so
// steady-state runs allocate little or nothing. Results are identical
// with or without a workspace. The copy is not safe for concurrent use;
// cmd/bisect and the harness wrap their BestOf in it once per run or
// row, and each bisectd worker wraps every algorithm once.
func WithWorkspace(b Bisector) Bisector {
	return attach(b, companions{workspace: true})
}

// WithParallel returns b unchanged: every run executes on one
// goroutine, and the only parallelism is across bisectd jobs.
//
// Deprecated: kept only for cmd/benchmark, its one caller; the next
// change to that benchmark removes both.
func WithParallel(b Bisector, degree int) Bisector { return b }

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

// Bisect implements Bisector. KL swaps pairs, so it keeps its random
// start's vertex-count balance; kl.Run then repairs the vertex-weight
// balance.
func (a KL) Bisect(g *graph.Graph, r *rng.Rand) (*partition.Bisection, error) {
	b, _, err := kl.Run(g, a.Opts, r)
	return b, err
}

// attach gives KL one Refiner (gain buckets, swap log, scratch stamps)
// that serves every pass of every run.
func (a KL) attach(c companions) Bisector {
	if c.obs != nil {
		a.Opts.Observer = c.obs
	}
	if c.ctl != nil {
		a.Opts.Control = c.ctl
	}
	if c.workspace {
		a.Opts.Workspace = kl.NewRefiner()
	}
	return a
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

// attach gives SA its own annealing workspace (vertex records,
// acceptance memo, undo log, best-state buffer), so every run after the
// first is allocation-free.
func (a SA) attach(c companions) Bisector {
	if c.obs != nil {
		a.Opts.Observer = c.obs
	}
	if c.ctl != nil {
		a.Opts.Control = c.ctl
	}
	if c.workspace {
		a.Opts.Workspace = anneal.NewRefiner()
	}
	return a
}

// Spectral is Fiedler-vector bisection (restarted Lanczos; see
// internal/spectral).
type Spectral struct{ Opts spectral.Options }

// Name implements Bisector.
func (Spectral) Name() string { return "spectral" }

// Bisect implements Bisector. The median split balances vertex counts;
// the repair then balances vertex weights.
func (a Spectral) Bisect(g *graph.Graph, r *rng.Rand) (*partition.Bisection, error) {
	if g.N() == 0 {
		return partition.NewRandom(g, r), nil
	}
	b, err := spectral.Bisect(g, a.Opts, r)
	if b != nil {
		partition.RepairBalance(b)
	}
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

// attach takes only a workspace: the solver's (Lanczos basis slab,
// matvec buffers, tridiagonal scratch) is reused across runs, so every
// warm solve allocates only the returned bisection. Spectral runs in one
// shot and reports no events.
func (a Spectral) attach(c companions) Bisector {
	if c.workspace {
		a.Opts.Workspace = spectral.NewWorkspace()
	}
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
	// WithWorkspace sets it, and a nil one gets a fresh arena per run.
	// Results are identical with or without one.
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

// Name implements Bisector.
func (c Compacted) Name() string { return "c" + c.Inner.Name() }

// coarseSolver returns the compaction drivers' initial bisector: inner
// bisects the coarsest graph. An interrupted inner run's best-so-far is
// a valid coarse bisection, so it is kept and its sentinel stored in
// *stopErr; a failed one degrades to a random start.
func coarseSolver(inner Bisector, stopErr *error) coarsen.InitialFunc {
	return func(cg *graph.Graph, r *rng.Rand) *partition.Bisection {
		b, err := inner.Bisect(cg, r)
		if err == nil {
			return b
		}
		if runctl.IsStop(err) && b != nil {
			*stopErr = err
			return b
		}
		return partition.NewRandom(cg, r)
	}
}

// Bisect implements Bisector.
func (c Compacted) Bisect(g *graph.Graph, r *rng.Rand) (*partition.Bisection, error) {
	if c.Inner == nil {
		return nil, fmt.Errorf("core: Compacted with nil inner bisector")
	}
	ws := c.Workspace
	if ws == nil {
		ws = coarsen.NewWorkspace()
	}
	var stopErr error
	start, err := ws.CompactOnce(g, c.Match, coarseSolver(c.Inner, &stopErr), nil, r, c.Observer)
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
	partition.RepairBalance(start)
	return start, stopErr
}

// attach keeps the observer, for the compaction's own level_done events,
// and a coarsen.Workspace arena for the matching, contraction and
// projection; Inner gets all three companions, for both the coarse solve
// and the final refinement. Inner's one workspace serves both graphs: it
// sizes itself to the larger and is reused as-is on the smaller.
func (c Compacted) attach(k companions) Bisector {
	if k.obs != nil {
		c.Observer = k.obs
	}
	if k.workspace {
		c.Workspace = coarsen.NewWorkspace()
	}
	if c.Inner != nil {
		c.Inner = attachRefinable(c.Inner, k)
	}
	return c
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
	refine := func(b *partition.Bisection, rr *rng.Rand) {
		// A stop during a level's refinement leaves b at its last
		// checkpoint; later levels stop at their first poll. Keep the
		// first sentinel so the truncated result is reported as such.
		if err := m.Inner.Refine(b, rr); runctl.IsStop(err) && stopErr == nil {
			stopErr = err
		}
	}
	b, err := coarsen.Multilevel(g, m.Opts, coarseSolver(m.Inner, &stopErr), refine, r)
	if err != nil {
		if !runctl.IsStop(err) || b == nil {
			return nil, err
		}
		// The driver stopped mid-coarsening but still projected a valid
		// bisection back to g; keep it and carry the sentinel.
		stopErr = err
	}
	partition.RepairBalance(b)
	return b, stopErr
}

// attach copies the options, never mutating the caller's, and sets the
// observer (one level_done per coarsening and uncoarsening level), the
// control (polled before every coarsening level) and a coarsen.Workspace
// arena for every contraction and interior projection. Inner gets all
// three, so one inner workspace serves every level of the hierarchy.
func (m Multilevel) attach(c companions) Bisector {
	var o coarsen.MultilevelOptions
	if m.Opts != nil {
		o = *m.Opts
	}
	if c.obs != nil {
		o.Observer = c.obs
	}
	if c.ctl != nil {
		o.Control = c.ctl
	}
	if c.workspace {
		o.Workspace = coarsen.NewWorkspace()
	}
	m.Opts = &o
	if m.Inner != nil {
		m.Inner = attachRefinable(m.Inner, c)
	}
	return m
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

// attach keeps the observer for itself, because Bisect stamps each
// start's events with the start index, and passes the control and the
// workspace to Inner: every start polls the one control and reuses the
// one workspace.
func (b BestOf) attach(c companions) Bisector {
	if c.obs != nil {
		b.Observer = c.obs
	}
	if c.ctl != nil {
		b.Control = c.ctl
	}
	if b.Inner != nil && (c.ctl != nil || c.workspace) {
		b.Inner = attach(b.Inner, companions{ctl: c.ctl, workspace: c.workspace})
	}
	return b
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
