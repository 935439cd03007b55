package coarsen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/spectral"
	"repro/internal/trace"
)

// Workspace is the compaction arena: it owns the matching scratch, one
// buffer set per coarsening level (coarse-id map, member pairs, coarse
// CSR arrays, a reusable projection bisection), the contraction row
// cursors and the projection side buffer — everything the
// match → contract → project pipeline touches — so a warm workspace
// compacts with zero steady-state heap allocations. Buffers are sized
// by the fine graph's dimensions (every coarse quantity is bounded by
// its fine counterpart), which makes the steady state deterministic
// even though the coarse vertex count varies run to run with the random
// matching.
//
// Results are identical with and without a workspace: the workspace
// matching consumes the same random stream as matching.RandomMaximal,
// and the contraction kernel reproduces the original Builder-based
// contraction byte for byte (the golden fixture pins both, and
// FuzzContractEquivalence and TestContractChainMatchesModel hold the
// kernel to a map-based model). A Workspace must not be shared across
// goroutines; core.WithWorkspace creates one per harness row and per
// bisectd worker.
type Workspace struct {
	match  matching.Workspace
	levels []*level
	depth  int
	rows   []rowCursor // contraction row cursors, reused by every level
	side   []uint8     // projection scratch, sized to the largest fine graph seen

	// spec is the lazily created spectral solver workspace for
	// MultilevelOptions.SpectralInit coarsest-level seeding.
	spec *spectral.Workspace
}

// level owns the buffers of one coarsening level. The slots live in a
// stack that Reset rewinds and Contract pushes, so a multilevel run
// reuses the same slots in the same order every time.
type level struct {
	con     Contraction
	g       graph.Graph         // coarse graph storage; con.Coarse == &g on the kernel path
	off     []int32             // coarse CSR offsets
	edges   []graph.Edge        // coarse half-edges
	vw      []int32             // coarse vertex weights
	fineBis partition.Bisection // reusable projection target for interior levels
}

// rowCursor tracks one coarse row while the contraction kernel fills
// it: cur is the next free slot, end is one past the row's last slot,
// and last is the head written most recently (−1 while the row is
// empty).
type rowCursor struct{ cur, end, last int32 }

// NewWorkspace returns an empty Workspace; buffers are sized lazily on
// first use and grown as needed, so one workspace serves graphs of any
// size.
func NewWorkspace() *Workspace { return &Workspace{} }

// Close does nothing: a Workspace holds no goroutines or other
// resources beyond its buffers.
//
// Deprecated: kept only for cmd/benchmark, its one caller; the next
// change to that benchmark removes both.
func (w *Workspace) Close() {}

// Reset rewinds the level stack so the next Contract reuses the first
// slot. Buffers are retained; graphs and contractions produced before
// the Reset are invalidated by the subsequent reuse.
func (w *Workspace) Reset() { w.depth = 0 }

// RandomMaximal runs matching.RandomMaximal on the workspace's matching
// scratch: same stream, same result, zero steady-state allocations. The
// returned mate array is valid until the workspace's next matching. The
// method value satisfies MatchFunc.
func (w *Workspace) RandomMaximal(g *graph.Graph, r *rng.Rand) []int32 {
	return w.match.RandomMaximal(g, r)
}

// HeavyEdge runs matching.HeavyEdge on the workspace's matching
// scratch; see RandomMaximal.
func (w *Workspace) HeavyEdge(g *graph.Graph, r *rng.Rand) []int32 {
	return w.match.HeavyEdge(g, r)
}

// Contract is the workspace counterpart of the package-level Contract:
// same validation, same coarse graph, but every output — the
// contraction record, its map and member arrays, and the coarse graph's
// CSR — lives in workspace buffers that the next Reset/Contract cycle
// reuses. The returned contraction is valid until this level slot is
// reused.
func (w *Workspace) Contract(g *graph.Graph, mate []int32) (*Contraction, error) {
	if err := matching.Validate(g, mate); err != nil {
		return nil, err
	}
	lv := w.pushLevel()
	if err := w.contractInto(lv, g, mate); err != nil {
		w.depth--
		return nil, err
	}
	return &lv.con, nil
}

func (w *Workspace) pushLevel() *level {
	if w.depth == len(w.levels) {
		w.levels = append(w.levels, &level{})
	}
	lv := w.levels[w.depth]
	lv.con.owner = lv
	w.depth++
	return lv
}

// contractInto runs the contraction into lv's buffers: coarse-id
// assignment, member pairs, summed vertex weights, then the coarse
// adjacency — directly in CSR via the kernel.
func (w *Workspace) contractInto(lv *level, g *graph.Graph, mate []int32) error {
	n := g.N()
	c := &lv.con
	c.Fine = g
	c.Coarse = nil
	c.Map = growInt32(c.Map, n)
	c.members = growInt32(c.members, 2*n)

	// Assign coarse ids: matched pairs get one id (at the smaller
	// endpoint's turn), singletons their own — the same order the
	// original implementation used, so Map is bit-identical.
	next := int32(0)
	for v := 0; v < n; v++ {
		m := mate[v]
		if m >= 0 && m < int32(v) {
			cv := c.Map[m]
			c.Map[v] = cv
			c.members[2*cv+1] = int32(v)
			continue
		}
		c.Map[v] = next
		c.members[2*next] = int32(v)
		c.members[2*next+1] = -1
		next++
	}
	cn := int(next)

	// Coarse vertex weights, with the same overflow bound the Builder
	// path enforced before any edge work.
	lv.vw = growInt32(lv.vw, n)[:cn]
	for cv := range lv.vw {
		a, b := c.members[2*cv], c.members[2*cv+1]
		wsum := int64(g.VertexWeight(a))
		if b >= 0 {
			wsum += int64(g.VertexWeight(b))
		}
		if wsum > 1<<30 {
			return fmt.Errorf("coarsen: merged vertex weight %d overflows", wsum)
		}
		lv.vw[cv] = int32(wsum)
	}

	lv.off = growInt32(lv.off, n+1)
	lv.edges = growEdges(lv.edges, 2*g.M())

	// Direct kernel, in three passes.
	//
	// Slots: row cv gets one slot for every fine half-edge that can
	// reach it. In a symmetric fine graph those mirror the half-edges
	// leaving cv's members, less the matched edge: deg(a)+deg(b)−2 for
	// a pair, deg(a) for a singleton, at most 2·M in all.
	//
	// Scatter: visiting coarse sources cu = 0, 1, … in order, every
	// fine half-edge x→y of cu's members appends (cu, w) to row Map[y].
	// Rows thus fill in increasing head order and come out sorted, and
	// a parallel edge (a second half-edge from cu's members into the
	// same row) can only repeat the row's last entry, where its weight
	// folds in. The fold test reads the cursor's last head rather than
	// the edge just written, which would add a dependent load per
	// half-edge. Only an asymmetric fine graph can send a row more
	// half-edges than it has slots, and that is an error before
	// anything is written past the row's end.
	//
	// Compact: folds leave gaps at row ends; one left-to-right pass
	// moves each row into place and writes the offsets.
	if cap(w.rows) < cn {
		w.rows = make([]rowCursor, n) // the fine n bounds every coarse n
	}
	rows := w.rows[:cn]
	slot := int32(0)
	for cv := range rows {
		a, b := c.members[2*cv], c.members[2*cv+1]
		d := int32(g.Degree(a))
		if b >= 0 {
			d += int32(g.Degree(b)) - 2
		}
		rows[cv] = rowCursor{cur: slot, end: slot + d, last: -1}
		slot += d
	}
	edges, cmap := lv.edges, c.Map
	for cu := int32(0); int(cu) < cn; cu++ {
		a, b := c.members[2*cu], c.members[2*cu+1]
		for k := 0; k < 2; k++ {
			fv := a
			if k == 1 {
				if b < 0 {
					break
				}
				fv = b
			}
			for _, e := range g.Neighbors(fv) {
				cv := cmap[e.To]
				if cv == cu {
					continue // the contracted matching edge itself
				}
				r := &rows[cv]
				if r.last == cu {
					i := r.cur - 1
					merged := int64(edges[i].W) + int64(e.W)
					if merged > 1<<30 {
						return fmt.Errorf("coarsen: merged weight %d on edge {%d,%d} overflows", merged, cv, cu)
					}
					edges[i].W = int32(merged)
					continue
				}
				if r.cur == r.end {
					return fmt.Errorf("coarsen: coarse vertex %d receives more half-edges than its members send (asymmetric fine graph)", cv)
				}
				edges[r.cur] = graph.Edge{To: cu, W: e.W}
				r.cur++
				r.last = cu
			}
		}
	}
	cur, start := int32(0), int32(0)
	for cv, r := range rows {
		lv.off[cv] = cur
		cur += int32(copy(edges[cur:], edges[start:r.cur]))
		start = r.end
	}
	lv.off[cn] = cur
	if err := lv.g.ResetCSR(lv.off[:cn+1], edges[:cur], lv.vw); err != nil {
		return fmt.Errorf("coarsen: contraction kernel produced invalid CSR: %w", err)
	}
	c.Coarse = &lv.g
	return nil
}

// Project is the workspace counterpart of Contraction.Project: the fine
// bisection is materialized in the contraction's level slot (via
// partition.Reset) instead of freshly allocated, so a warm interior
// projection allocates nothing. The returned bisection is owned by the
// workspace — valid until the next Project on the same contraction or
// until the level slot is reused — which is why the multilevel driver
// uses it only for interior levels and returns a caller-owned bisection
// from the final one. A contraction not produced by a workspace falls
// back to the allocating path.
func (w *Workspace) Project(c *Contraction, coarse *partition.Bisection) (*partition.Bisection, error) {
	lv := c.owner
	if lv == nil {
		return c.Project(coarse)
	}
	if coarse.Graph() != c.Coarse {
		return nil, fmt.Errorf("coarsen: Project called with a bisection of a different graph")
	}
	n := c.Fine.N()
	w.side = growUint8(w.side, n)
	side := w.side
	cs := coarse.SidesRef()
	for v := 0; v < n; v++ {
		side[v] = cs[c.Map[v]]
	}
	if err := lv.fineBis.Reset(c.Fine, side); err != nil {
		return nil, err
	}
	return &lv.fineBis, nil
}

// CompactOnce is the workspace counterpart of the package-level
// CompactOnce: identical protocol, identical random stream, identical
// trace events, but the matching, contraction, and interior buffers all
// come from the workspace. The returned fine bisection is freshly
// allocated and caller-owned (multi-start drivers keep candidates from
// several runs alive at once), so one bisection allocation per run
// remains; everything interior is reused.
func (w *Workspace) CompactOnce(g *graph.Graph, match MatchFunc, initial InitialFunc, refine RefineFunc, r *rng.Rand, obs trace.Observer) (*partition.Bisection, error) {
	if initial == nil {
		return nil, fmt.Errorf("coarsen: CompactOnce needs an initial bisector")
	}
	w.Reset()
	var mate []int32
	if match == nil {
		mate = w.match.RandomMaximal(g, r)
	} else {
		mate = match(g, r)
	}
	if matching.Size(mate) == 0 {
		// Nothing to contract (edgeless graph): solve directly.
		b := initial(g, r)
		if b == nil || b.Graph() != g {
			return nil, fmt.Errorf("coarsen: initial bisector returned an invalid bisection")
		}
		partition.RepairBalance(b, partition.MinAchievableImbalance(g.TotalVertexWeight()))
		return b, nil
	}
	c, err := w.Contract(g, mate)
	if err != nil {
		return nil, err
	}
	if obs != nil {
		obs.Observe(trace.Event{
			Type: trace.TypeLevelDone, Algo: "coarsen", Phase: "coarsen",
			Index: 0, Vertices: c.Coarse.N(), Edges: c.Coarse.M(),
		})
	}
	cb := initial(c.Coarse, r)
	if cb == nil || cb.Graph() != c.Coarse {
		return nil, fmt.Errorf("coarsen: initial bisector returned an invalid bisection")
	}
	partition.RepairBalance(cb, partition.MinAchievableImbalance(c.Coarse.TotalVertexWeight()))
	if refine != nil {
		refine(cb, r)
	}
	fine, err := c.Project(cb)
	if err != nil {
		return nil, err
	}
	partition.RepairBalance(fine, partition.MinAchievableImbalance(g.TotalVertexWeight()))
	if obs != nil {
		obs.Observe(trace.Event{
			Type: trace.TypeLevelDone, Algo: "coarsen", Phase: "uncoarsen",
			Index: 0, Cut: fine.Cut(), BestCut: fine.Cut(),
			Imbalance: fine.Imbalance(), Vertices: g.N(), Edges: g.M(),
		})
	}
	return fine, nil
}

// multilevel is the workspace-backed body of the package-level
// Multilevel driver: identical protocol, stream, and trace events, with
// contractions, level graphs, and interior projections all running in
// workspace buffers. Only the final fine bisection (and the coarsest
// initial solve, which the initial bisector owns) is freshly allocated.
// Options are assumed already defaulted by withDefaults.
func (w *Workspace) multilevel(g *graph.Graph, o MultilevelOptions, initial InitialFunc, refine RefineFunc, r *rng.Rand) (*partition.Bisection, error) {
	w.Reset()

	// Coarsening phase. The level stack w.levels[0:nlv] plays the role of
	// the original implementation's levels slice. A stop request halts
	// coarsening where it stands; the rest of the pipeline still runs
	// (minus refinement) so the caller gets a valid fine-graph bisection.
	var stopErr error
	nlv := 0
	cur := g
	for nlv < o.MaxLevels && cur.N() > o.MinSize {
		if stopErr = o.Control.Check(); stopErr != nil {
			break
		}
		mate := o.Match(cur, r)
		if matching.Size(mate) == 0 {
			break
		}
		c, err := w.Contract(cur, mate)
		if err != nil {
			return nil, err
		}
		if c.Ratio() > o.MinRatio {
			w.depth-- // pop the unproductive level so its slot is reusable
			break
		}
		nlv++
		cur = c.Coarse
		if o.Observer != nil {
			o.Observer.Observe(trace.Event{
				Type: trace.TypeLevelDone, Algo: "coarsen", Phase: "coarsen",
				Index: nlv - 1, Vertices: cur.N(), Edges: cur.M(),
			})
		}
	}

	// Coarsest solution.
	b := w.coarsestSolve(cur, o, initial, r)
	if b == nil || b.Graph() != cur {
		return nil, fmt.Errorf("coarsen: initial bisector returned an invalid bisection")
	}
	partition.RepairBalance(b, partition.MinAchievableImbalance(cur.TotalVertexWeight()))
	if refine != nil && stopErr == nil {
		refine(b, r)
	}
	if o.Observer != nil {
		o.Observer.Observe(trace.Event{
			Type: trace.TypeLevelDone, Algo: "coarsen", Phase: "initial",
			Index: nlv, Cut: b.Cut(), BestCut: b.Cut(),
			Imbalance: b.Imbalance(), Vertices: cur.N(), Edges: cur.M(),
		})
	}

	// Uncoarsening phase. Interior projections land in workspace-owned
	// bisections (each level slot has its own, so b never aliases the
	// target it projects into); the last projection — the bisection this
	// function returns — is freshly allocated and caller-owned, because
	// multi-start drivers keep results from several runs alive while the
	// workspace moves on to the next.
	for i := nlv - 1; i >= 0; i-- {
		c := &w.levels[i].con
		var fine *partition.Bisection
		var err error
		if i == 0 {
			fine, err = c.Project(b)
		} else {
			fine, err = w.Project(c, b)
		}
		if err != nil {
			return nil, err
		}
		b = fine
		partition.RepairBalance(b, partition.MinAchievableImbalance(b.Graph().TotalVertexWeight()))
		if refine != nil && stopErr == nil {
			refine(b, r)
		}
		if o.Observer != nil {
			o.Observer.Observe(trace.Event{
				Type: trace.TypeLevelDone, Algo: "coarsen", Phase: "uncoarsen",
				Index: i, Cut: b.Cut(), BestCut: b.Cut(),
				Imbalance: b.Imbalance(), Vertices: b.Graph().N(), Edges: b.Graph().M(),
			})
		}
	}
	return b, stopErr
}

// coarsestSolve produces the coarsest-level bisection: the spectral
// median split when SpectralInit is set, the initial bisector
// otherwise. The spectral solver reuses a workspace owned by the arena,
// so repeated runs don't re-grow solver buffers. A
// solver that stops at its matvec budget still seeds with the
// best-effort split; a hard solver failure falls back to initial so
// Multilevel never loses a result to its own seeding heuristic.
func (w *Workspace) coarsestSolve(cur *graph.Graph, o MultilevelOptions, initial InitialFunc, r *rng.Rand) *partition.Bisection {
	if !o.SpectralInit {
		return initial(cur, r)
	}
	if w.spec == nil {
		w.spec = spectral.NewWorkspace()
	}
	b, err := spectral.Bisect(cur, spectral.Options{Workspace: w.spec}, r)
	if err != nil && !spectral.IsNotConverged(err) {
		return initial(cur, r)
	}
	return b
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growUint8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

func growEdges(s []graph.Edge, n int) []graph.Edge {
	if cap(s) < n {
		return make([]graph.Edge, n)
	}
	return s[:n]
}
