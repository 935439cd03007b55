package bisect

import (
	"context"
	"io"

	"repro/internal/anneal"
	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/runctl"
	"repro/internal/spectral"
	"repro/internal/trace"
)

// Core types, re-exported from the internal packages. Aliases keep the
// public API stable while the implementation lives under internal/.
type (
	// Graph is an immutable weighted undirected simple graph.
	Graph = graph.Graph
	// Builder accumulates edges and produces a Graph.
	Builder = graph.Builder
	// Edge is a half-edge (head vertex and weight).
	Edge = graph.Edge
	// Bisection is a mutable two-way partition with incremental cut and
	// gain maintenance.
	Bisection = partition.Bisection
	// Bisector is the algorithm interface: Name() and Bisect().
	Bisector = core.Bisector
	// RefinableBisector additionally improves an existing bisection.
	RefinableBisector = core.RefinableBisector
	// Rand is the deterministic random source used by every algorithm.
	Rand = rng.Rand

	// KLOptions configures Kernighan–Lin.
	KLOptions = kl.Options
	// KLStats reports what a Kernighan–Lin run did (passes, swaps,
	// scanned pairs, cut trajectory).
	KLStats = kl.Stats
	// KLRefiner is the reusable zero-allocation workspace for KL passes;
	// its zero value is ready for KLOptions.Workspace, and WithWorkspace
	// attaches one to a composed bisector.
	KLRefiner = kl.Refiner
	// SAOptions configures simulated annealing (JAMS'89 schedule).
	SAOptions = anneal.Options
	// SpectralOptions configures spectral bisection.
	SpectralOptions = spectral.Options
	// MultilevelOptions configures the recursive compaction driver.
	MultilevelOptions = coarsen.MultilevelOptions

	// KL is plain Kernighan–Lin (Bisector).
	KL = core.KL
	// SA is plain simulated annealing (Bisector).
	SA = core.SA
	// Compacted wraps a RefinableBisector with the paper's compaction.
	Compacted = core.Compacted
	// Multilevel wraps a RefinableBisector with recursive compaction.
	Multilevel = core.Multilevel
	// BestOf repeats a Bisector and keeps the best cut; wrap it in
	// WithWorkspace to run every start on one reusable workspace.
	BestOf = core.BestOf

	// TraceEvent is one observability event (see docs/OBSERVABILITY.md
	// for the schema).
	TraceEvent = trace.Event
	// TraceEventType discriminates trace events.
	TraceEventType = trace.Type
	// TraceObserver receives trace events; nil means no tracing at zero
	// cost.
	TraceObserver = trace.Observer
	// TraceRecorder is a ring-buffered in-memory observer.
	TraceRecorder = trace.Recorder
	// TraceJSONL streams events as JSON Lines (deterministic by default).
	TraceJSONL = trace.JSONL
	// ObservableBisector is a Bisector whose runs can report trace
	// events.
	ObservableBisector = core.Observable
)

// NewRand returns a deterministic random source (lagged-Fibonacci) seeded
// with seed.
func NewRand(seed uint64) *Rand { return rng.NewFib(seed) }

// RunKL bisects g with Kernighan–Lin from a random balanced start and
// also returns the run statistics (the KL Bisector discards them).
func RunKL(g *Graph, opts KLOptions, r *Rand) (*Bisection, KLStats, error) {
	return kl.Run(g, opts, r)
}

// WithWorkspace attaches a private reusable refinement workspace to b
// if its algorithm supports one (KL, SA, spectral, and the drivers
// composing them); otherwise returns b unchanged. The returned bisector
// is not safe for concurrent use.
func WithWorkspace(b Bisector) Bisector { return core.WithWorkspace(b) }

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// NewBisector returns the named algorithm with default options.
// Recognized names: random, kl, sa, spectral, ckl, csa, mlkl, mlsa, and
// the spectral-initialized multilevel variant mlkl+spec (Lanczos Fiedler
// split at the coarsest level instead of a random one; see
// docs/ALGORITHMS.md).
func NewBisector(name string) (Bisector, error) { return core.New(name) }

// BisectorNames lists the registry's algorithm names.
func BisectorNames() []string { return core.Names() }

// Observability (docs/OBSERVABILITY.md).

// WithObserver attaches obs to b if b is observable; otherwise (or when
// obs is nil) it returns b unchanged. Attaching an observer never
// changes the bisections an algorithm produces.
func WithObserver(b Bisector, obs TraceObserver) Bisector { return core.WithObserver(b, obs) }

// NewTraceRecorder returns a ring-buffered in-memory observer keeping at
// most capacity events (capacity ≤ 0 = unbounded).
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.NewRecorder(capacity) }

// NewTraceJSONL returns an observer streaming one JSON object per event
// line to w; output is byte-identical across runs of the same seed
// unless its Timing field is set.
func NewTraceJSONL(w io.Writer) *TraceJSONL { return trace.NewJSONL(w) }

// NewBisection wraps an explicit side assignment (entries 0/1).
func NewBisection(g *Graph, side []uint8) (*Bisection, error) { return partition.New(g, side) }

// CutOf computes the weighted cut of a side assignment.
func CutOf(g *Graph, side []uint8) int64 { return partition.CutOf(g, side) }

// Graph generators (the paper's models and special families).

// GNP samples the Erdős–Rényi model 𝒢np(n, p).
func GNP(n int, p float64, r *Rand) (*Graph, error) { return gen.GNP(n, p, r) }

// TwoSet samples the planted-bisection model 𝒢2set(2n, pA, pB, bis).
func TwoSet(twoN int, pA, pB float64, bis int, r *Rand) (*Graph, error) {
	return gen.TwoSet(twoN, pA, pB, bis, r)
}

// TwoSetForAvgDegree converts a target average degree to the internal
// edge probability of TwoSet.
func TwoSetForAvgDegree(twoN int, avgDeg float64, bis int) (float64, error) {
	return gen.TwoSetForAvgDegree(twoN, avgDeg, bis)
}

// BReg samples 𝒢breg(2n, b, d): d-regular with planted bisection width b.
func BReg(twoN, b, d int, r *Rand) (*Graph, error) { return gen.BReg(twoN, b, d, r) }

// RandomRegular samples a uniform simple d-regular graph.
func RandomRegular(n, d int, r *Rand) (*Graph, error) { return gen.RandomRegular(n, d, r) }

// Path returns the path graph on n vertices.
func Path(n int) (*Graph, error) { return gen.Path(n) }

// Cycle returns the cycle on n ≥ 3 vertices.
func Cycle(n int) (*Graph, error) { return gen.Cycle(n) }

// CycleCollection returns a disjoint union of cycles.
func CycleCollection(sizes []int) (*Graph, error) { return gen.CycleCollection(sizes) }

// Ladder returns the 2×k ladder graph.
func Ladder(k int) (*Graph, error) { return gen.Ladder(k) }

// Ladder3N returns the paper's 3N-vertex ladder (midpoint rungs).
func Ladder3N(n int) (*Graph, error) { return gen.Ladder3N(n) }

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) (*Graph, error) { return gen.Grid(rows, cols) }

// CompleteBinaryTree returns the heap-layout binary tree on n vertices.
func CompleteBinaryTree(n int) (*Graph, error) { return gen.CompleteBinaryTree(n) }

// Hypercube returns the dim-dimensional hypercube.
func Hypercube(dim int) (*Graph, error) { return gen.Hypercube(dim) }

// Complete returns K_n.
func Complete(n int) (*Graph, error) { return gen.Complete(n) }

// CompleteBipartite returns K_{a,b}.
func CompleteBipartite(a, b int) (*Graph, error) { return gen.CompleteBipartite(a, b) }

// Caterpillar returns a caterpillar tree.
func Caterpillar(spine, legs int) (*Graph, error) { return gen.Caterpillar(spine, legs) }

// Serialization: the native edge list and the binary CSR image (BCSR).

// WriteEdgeList writes g in the native edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// ReadEdgeList parses the native edge-list format.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// CSRFile is a Graph backed by a memory-mapped on-disk CSR image; see
// OpenCSRFile. Close releases the mapping.
type CSRFile = graph.CSRFile

// WriteCSRFile writes g in the binary CSR format (BCSR), the zero-copy
// on-disk layout documented in docs/PERFORMANCE.md.
func WriteCSRFile(w io.Writer, g *Graph) error { return graph.WriteCSRFile(w, g) }

// OpenCSRFile memory-maps a BCSR file and wraps it as a Graph without
// copying the edge arrays. The caller must keep the returned CSRFile
// open while the Graph is in use and Close it afterwards.
func OpenCSRFile(path string) (*CSRFile, error) { return graph.OpenCSRFile(path) }

// LoadGraphFile loads a graph file in either format, told apart by the
// BCSR magic rather than the file name: a BCSR image is memory-mapped
// and validated, anything else is parsed as an edge list. Call release
// when done with the graph.
func LoadGraphFile(path string) (g *Graph, release func() error, err error) {
	return graph.LoadFile(path)
}

// Exact solvers.

// ExactBisectionWidth computes the exact minimum bisection (≤ 28
// vertices) with a witness.
func ExactBisectionWidth(g *Graph) (int64, []uint8, error) { return exact.BisectionWidth(g) }

// CycleCollectionWidth computes the exact bisection width of a disjoint
// union of cycles.
func CycleCollectionWidth(g *Graph) (int64, error) { return exact.CycleCollectionWidth(g) }

// Matching and compaction primitives.

// HeavyEdgeMatching returns a maximal matching preferring heavy edges.
func HeavyEdgeMatching(g *Graph, r *Rand) []int32 { return matching.HeavyEdge(g, r) }

// RepairBalance greedily restores weight balance and returns the final
// imbalance.
func RepairBalance(b *Bisection, maxImbalance int64) int64 {
	return partition.RepairBalance(b, maxImbalance)
}

// PermuteGraph relabels g's vertices by the permutation perm.
func PermuteGraph(g *Graph, perm []int32) (*Graph, error) { return graph.Permute(g, perm) }

// TreeBisectionWidth computes the exact minimum bisection of a forest in
// O(n²) with a witness.
func TreeBisectionWidth(g *Graph) (int64, []uint8, error) { return exact.TreeBisectionWidth(g) }

// SpectralLowerBound returns the Fiedler estimate λ₂·|V|/4 of a lower
// bound on the bisection width. λ₂ is estimated from above, so the value
// is not a certificate; when the eigensolve does not converge the error
// says so, and the value beside it bounds nothing.
func SpectralLowerBound(g *Graph, opts SpectralOptions, r *Rand) (float64, error) {
	return spectral.BisectionLowerBound(g, opts, r)
}

// Run control (docs/ROBUSTNESS.md).

// RunControl carries cancellation and checkpoint budgets into algorithm
// runs; see WithControl and BisectCtx.
type RunControl = runctl.Control

// NewRunControl returns a control that stops at ctx's cancellation or
// after budget checkpoint polls, whichever comes first (budget ≤ 0 =
// unlimited). A nil *RunControl is valid and never stops.
func NewRunControl(ctx context.Context, budget int64) *RunControl { return runctl.New(ctx, budget) }

// IsStopError reports whether err is a cooperative-stop sentinel
// (budget exhausted, context cancelled, or deadline exceeded) — i.e.
// whether an accompanying bisection is a valid best-so-far result
// rather than debris from a failure.
func IsStopError(err error) bool { return runctl.IsStop(err) }

// WithControl attaches ctl to b if its algorithm supports cooperative
// interruption; otherwise (or when ctl is nil) returns b unchanged.
func WithControl(b Bisector, ctl *RunControl) Bisector { return core.WithControl(b, ctl) }

// BisectCtx runs b on g under ctx: on cancellation or deadline the run
// stops at its next checkpoint and returns its valid best-so-far
// bisection together with ctx's error.
func BisectCtx(ctx context.Context, b Bisector, g *Graph, r *Rand) (*Bisection, error) {
	return core.BisectCtx(ctx, b, g, r)
}
