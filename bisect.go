package bisect

import (
	"context"
	"io"
	iofs "io/fs"

	"repro/internal/anneal"
	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/fsx"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/matching"
	"repro/internal/netlist"
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
	// Netlist is a VLSI netlist (cells and multi-terminal nets).
	Netlist = netlist.Netlist

	// KLOptions configures Kernighan–Lin.
	KLOptions = kl.Options
	// KLStats reports what a Kernighan–Lin run did (passes, swaps,
	// scanned pairs, cut trajectory).
	KLStats = kl.Stats
	// KLRefiner is the reusable zero-allocation workspace for KL passes.
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
	// Spectral is Fiedler-vector bisection (Bisector).
	Spectral = core.Spectral
	// Compacted wraps a RefinableBisector with the paper's compaction.
	Compacted = core.Compacted
	// Multilevel wraps a RefinableBisector with recursive compaction.
	Multilevel = core.Multilevel
	// BestOf repeats a Bisector and keeps the best cut.
	BestOf = core.BestOf
	// ParallelBestOf runs independent starts concurrently.
	ParallelBestOf = core.ParallelBestOf
	// RandomBisector assigns sides uniformly at random under balance.
	RandomBisector = core.Random

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
	// TraceCSV flattens events into a CSV convergence-curve table.
	TraceCSV = trace.CSVCurve
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

// NewKLRefiner returns a reusable KL workspace; pass it via
// KLOptions.Workspace to make repeated runs allocation-free. See
// docs/PERFORMANCE.md.
func NewKLRefiner() *KLRefiner { return kl.NewRefiner() }

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

// NewTraceCSV returns an observer writing a flat CSV convergence-curve
// table to w; call Flush when done.
func NewTraceCSV(w io.Writer) *TraceCSV { return trace.NewCSVCurve(w) }

// MultiTraceObserver fans events out to every non-nil argument.
func MultiTraceObserver(obs ...TraceObserver) TraceObserver { return trace.Multi(obs...) }

// NewBisection wraps an explicit side assignment (entries 0/1).
func NewBisection(g *Graph, side []uint8) (*Bisection, error) { return partition.New(g, side) }

// NewRandomBisection returns a random balanced bisection.
func NewRandomBisection(g *Graph, r *Rand) *Bisection { return partition.NewRandom(g, r) }

// CutOf computes the weighted cut of a side assignment.
func CutOf(g *Graph, side []uint8) int64 { return partition.CutOf(g, side) }

// Graph generators (the paper's models and special families).

// GNP samples the Erdős–Rényi model 𝒢np(n, p).
func GNP(n int, p float64, r *Rand) (*Graph, error) { return gen.GNP(n, p, r) }

// StreamGNP enumerates the edges of 𝒢np(n, p) without materializing the
// graph (O(1) working memory); see gengraph's streaming mode. Two
// passes over sources with the same seed visit the identical edge set.
func StreamGNP(n int, p float64, r *Rand, emit func(u, v int32) error) (int64, error) {
	return gen.StreamGNP(n, p, r, emit)
}

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

// Torus returns the rows×cols torus.
func Torus(rows, cols int) (*Graph, error) { return gen.Torus(rows, cols) }

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

// WattsStrogatz samples a small-world graph (ring lattice with rewiring).
func WattsStrogatz(n, k int, beta float64, r *Rand) (*Graph, error) {
	return gen.WattsStrogatz(n, k, beta, r)
}

// Geometric samples a random geometric graph on the unit square.
func Geometric(n int, radius float64, r *Rand) (*Graph, error) { return gen.Geometric(n, radius, r) }

// GeometricRadiusForAvgDegree converts a target average degree to a
// Geometric radius.
func GeometricRadiusForAvgDegree(n int, avgDeg float64) (float64, error) {
	return gen.GeometricRadiusForAvgDegree(n, avgDeg)
}

// RandomNetlistOptions parameterizes RandomNetlist.
type RandomNetlistOptions = netlist.RandomOptions

// RandomNetlist generates a synthetic netlist with Rent-style locality.
func RandomNetlist(opts RandomNetlistOptions, r *Rand) (*Netlist, error) {
	return netlist.Random(opts, r)
}

// Serialization.

// WriteEdgeList writes g in the native edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// ReadEdgeList parses the native edge-list format.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteMETIS writes g in the METIS adjacency format.
func WriteMETIS(w io.Writer, g *Graph) error { return graph.WriteMETIS(w, g) }

// ReadMETIS parses the METIS adjacency format.
func ReadMETIS(r io.Reader) (*Graph, error) { return graph.ReadMETIS(r) }

// MarshalGraph encodes g as JSON.
func MarshalGraph(g *Graph) ([]byte, error) { return graph.MarshalGraph(g) }

// UnmarshalGraph decodes JSON produced by MarshalGraph.
func UnmarshalGraph(data []byte) (*Graph, error) { return graph.UnmarshalGraph(data) }

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

// ReadCSRFile parses a BCSR stream into a heap-allocated Graph. Use
// OpenCSRFile instead when the data is a local file: mapping skips the
// copy entirely.
func ReadCSRFile(r io.Reader) (*Graph, error) { return graph.ReadCSRFile(r) }

// Exact solvers.

// ExactBisectionWidth computes the exact minimum bisection (≤ 28
// vertices) with a witness.
func ExactBisectionWidth(g *Graph) (int64, []uint8, error) { return exact.BisectionWidth(g) }

// CycleCollectionWidth computes the exact bisection width of a disjoint
// union of cycles.
func CycleCollectionWidth(g *Graph) (int64, error) { return exact.CycleCollectionWidth(g) }

// Matching and compaction primitives.

// RandomMaximalMatching returns a random maximal matching as a mate
// array (−1 = unmatched).
func RandomMaximalMatching(g *Graph, r *Rand) []int32 { return matching.RandomMaximal(g, r) }

// HeavyEdgeMatching returns a maximal matching preferring heavy edges.
func HeavyEdgeMatching(g *Graph, r *Rand) []int32 { return matching.HeavyEdge(g, r) }

// Contraction records a fine↔coarse correspondence.
type Contraction = coarsen.Contraction

// Contract coalesces the matched pairs of mate into a weighted coarse
// graph.
func Contract(g *Graph, mate []int32) (*Contraction, error) { return coarsen.Contract(g, mate) }

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

// Lambda2 estimates the algebraic connectivity (second-smallest Laplacian
// eigenvalue) via the Fiedler vector's Rayleigh quotient.
func Lambda2(g *Graph, opts SpectralOptions, r *Rand) (float64, error) {
	return spectral.Lambda2(g, opts, r)
}

// SpectralLowerBound returns the Fiedler lower bound λ₂·|V|/4 on the
// bisection width (approximate: λ₂ is estimated).
func SpectralLowerBound(g *Graph, opts SpectralOptions, r *Rand) (float64, error) {
	return spectral.BisectionLowerBound(g, opts, r)
}

// Run control (docs/ROBUSTNESS.md).

type (
	// RunControl carries cancellation and checkpoint budgets into
	// algorithm runs; see WithControl and BisectCtx.
	RunControl = runctl.Control
	// ControllableBisector is a Bisector whose runs can be interrupted
	// at coarse checkpoints, returning their best-so-far bisection.
	ControllableBisector = core.Controllable
	// PoolError aggregates the failed starts of a ParallelBestOf run;
	// it can accompany a usable best-of-survivors bisection.
	PoolError = core.PoolError
	// PanicError is a panic captured inside one start of a parallel run.
	PanicError = core.PanicError
)

// ErrBudgetExceeded is returned (possibly wrapped) by runs stopped by a
// checkpoint budget; IsStopError reports true for it.
var ErrBudgetExceeded = runctl.ErrBudgetExceeded

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

// RefineCtx improves bis in place under ctx; see BisectCtx.
func RefineCtx(ctx context.Context, b RefinableBisector, bis *Bisection, r *Rand) error {
	return core.RefineCtx(ctx, b, bis, r)
}

// WriteFileAtomic writes data to path atomically (temp file in the same
// directory + fsync + rename), so readers never observe a partial file
// and a crash mid-write leaves any previous contents intact.
func WriteFileAtomic(path string, data []byte, perm uint32) error {
	return fsx.WriteFileAtomic(path, data, iofs.FileMode(perm))
}

// NewNetlist returns an empty VLSI netlist.
func NewNetlist() *Netlist { return netlist.New() }

// ParseNetlist reads the netlist text format.
func ParseNetlist(r io.Reader) (*Netlist, error) { return netlist.Parse(r) }

// WriteNetlist writes the netlist text format.
func WriteNetlist(w io.Writer, nl *Netlist) error { return netlist.Write(w, nl) }
