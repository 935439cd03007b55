// Package graph provides the weighted undirected graph substrate used by
// every algorithm in the repository.
//
// Graphs are simple (no self-loops, no parallel edges) but carry integer
// edge weights and vertex weights, because the compaction heuristic of the
// paper contracts matchings: contracting an edge merges parallel edges
// into a single weighted edge and adds the endpoint vertex weights. Plain
// input graphs have all weights equal to one, so the weighted cut of an
// uncontracted graph equals the paper's unweighted cut.
//
// Vertices are identified by dense indices 0..N()-1 of type int32 (the
// paper's instances are thousands of vertices; int32 halves the memory of
// the adjacency structure and keeps it cache-friendly).
//
// Storage is compressed sparse row (CSR): one contiguous []Edge holding
// all half-edges plus an N()+1 offset array, with each vertex's list
// sorted by head vertex. The flat layout keeps refinement inner loops
// (which walk the neighborhoods of many vertices per pass) on sequential
// memory, and the sorted lists make EdgeWeight a binary search instead of
// a linear probe. Derived per-vertex quantities that the algorithms
// consult every pass — weighted degree, the maximum weighted degree (the
// gain-bucket bound), the maximum vertex weight — are computed once at
// Build time and served in O(1).
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Edge is a half-edge: the head vertex and the weight of the connecting
// edge. Each undirected edge {u,v} appears once in u's list and once in
// v's list with equal weight.
type Edge struct {
	To int32
	W  int32
}

// Graph is an immutable weighted undirected simple graph. Construct one
// with a Builder or a generator from internal/gen.
//
// Adjacency is stored as CSR with int32 offsets: MaxEdges keeps every
// graph's half-edge count within int32 range, so one representation
// serves every size the package accepts.
type Graph struct {
	n     int
	off   []int32 // CSR offsets: v's half-edges are edges[off[v]:off[v+1]]
	edges []Edge  // all half-edges, each list sorted by To
	vw    []int32
	wdeg  []int64 // cached weighted degree per vertex
	m     int     // number of undirected edges
	ew    int64   // total edge weight
	vwUp  int64   // total vertex weight

	maxDeg  int   // cached maximum degree
	maxWDeg int64 // cached maximum weighted degree (the gain bound)
	maxVW   int32 // cached maximum vertex weight (1 for plain graphs)
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// TotalEdgeWeight returns the sum of weights over undirected edges.
func (g *Graph) TotalEdgeWeight() int64 { return g.ew }

// TotalVertexWeight returns the sum of all vertex weights.
func (g *Graph) TotalVertexWeight() int64 { return g.vwUp }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int32) int { return int(g.off[v+1] - g.off[v]) }

// WeightedDegree returns the sum of edge weights incident to v (cached at
// Build time; O(1)).
func (g *Graph) WeightedDegree(v int32) int64 { return g.wdeg[v] }

// MaxWeightedDegree returns the maximum weighted degree over all vertices
// (0 for the empty graph). This is the gain bound the bucket structures
// of the refinement algorithms need every pass; it is cached at Build
// time.
func (g *Graph) MaxWeightedDegree() int64 { return g.maxWDeg }

// MaxVertexWeight returns the largest vertex weight (1 for plain graphs
// and for the empty graph, so it is always a valid positive weight).
func (g *Graph) MaxVertexWeight() int32 { return g.maxVW }

// Neighbors returns v's adjacency list, sorted by head vertex. The
// returned slice aliases the graph's CSR storage and must not be
// modified.
func (g *Graph) Neighbors(v int32) []Edge {
	return g.edges[g.off[v]:g.off[v+1]:g.off[v+1]]
}

// rowBounds returns the half-edge index range of v's row.
func (g *Graph) rowBounds(v int32) (lo, hi int) {
	return int(g.off[v]), int(g.off[v+1])
}

// VertexWeight returns the weight of v (1 for plain graphs).
func (g *Graph) VertexWeight(v int32) int32 {
	if g.vw == nil {
		return 1
	}
	return g.vw[v]
}

// Weighted reports whether the graph carries non-unit vertex weights.
func (g *Graph) Weighted() bool { return g.vw != nil }

// AvgDegree returns the average (unweighted) vertex degree, 2M/N.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.n)
}

// HasEdge reports whether {u,v} is an edge. O(log min(deg u, deg v)).
func (g *Graph) HasEdge(u, v int32) bool {
	return g.EdgeWeight(u, v) != 0
}

// edgeWeightSearchMin is the list length above which EdgeWeight switches
// from a linear scan to binary search; short lists (the common case on
// the paper's sparse instances) scan faster than they bisect.
const edgeWeightSearchMin = 8

// EdgeWeight returns the weight of edge {u,v}, or 0 if absent. Adjacency
// lists are sorted by head vertex, so this is a binary search on the
// smaller endpoint's list (with a linear scan below a small cutoff).
func (g *Graph) EdgeWeight(u, v int32) int32 {
	lo, hi := g.rowBounds(u)
	if l2, h2 := g.rowBounds(v); h2-l2 < hi-lo {
		lo, hi, v = l2, h2, u
	}
	if hi-lo <= edgeWeightSearchMin {
		for i := lo; i < hi; i++ {
			if g.edges[i].To == v {
				return g.edges[i].W
			}
		}
		return 0
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if t := g.edges[mid].To; t == v {
			return g.edges[mid].W
		} else if t < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return 0
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph;
// cached at Build time).
func (g *Graph) MaxDegree() int { return g.maxDeg }

// Edges calls fn once per undirected edge {u,v} with u < v.
func (g *Graph) Edges(fn func(u, v int32, w int32)) {
	for u := 0; u < g.n; u++ {
		for _, e := range g.Neighbors(int32(u)) {
			if int32(u) < e.To {
				fn(int32(u), e.To, e.W)
			}
		}
	}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := *g
	c.off = append([]int32(nil), g.off...)
	c.edges = append([]Edge(nil), g.edges...)
	c.wdeg = append([]int64(nil), g.wdeg...)
	if g.vw != nil {
		c.vw = append([]int32(nil), g.vw...)
	}
	return &c
}

// Validate checks the structural invariants: adjacency symmetry with equal
// weights, sorted lists, no self-loops, no parallel edges, positive
// weights, and consistent cached totals. It returns the first violation
// found.
func (g *Graph) Validate() error {
	if len(g.off) != g.n+1 && !(g.n == 0 && len(g.off) == 0) {
		return fmt.Errorf("graph: offset array has %d entries for %d vertices", len(g.off), g.n)
	}
	var m int
	var ew int64
	var maxDeg int
	var maxWDeg int64
	for u := int32(0); int(u) < g.n; u++ {
		nbrs := g.Neighbors(u)
		if len(nbrs) > maxDeg {
			maxDeg = len(nbrs)
		}
		var wd int64
		for i, e := range nbrs {
			if e.To < 0 || int(e.To) >= g.n {
				return fmt.Errorf("graph: vertex %d has neighbor %d out of range [0,%d)", u, e.To, g.n)
			}
			if e.To == u {
				return fmt.Errorf("graph: self-loop at vertex %d", u)
			}
			if e.W <= 0 {
				return fmt.Errorf("graph: non-positive weight %d on edge {%d,%d}", e.W, u, e.To)
			}
			if i > 0 && nbrs[i-1].To >= e.To {
				return fmt.Errorf("graph: adjacency of vertex %d not strictly sorted at %d", u, e.To)
			}
			if w := g.EdgeWeight(e.To, u); w != e.W {
				return fmt.Errorf("graph: asymmetric edge {%d,%d}: %d vs %d", u, e.To, e.W, w)
			}
			wd += int64(e.W)
			if u < e.To {
				m++
				ew += int64(e.W)
			}
		}
		if wd != g.wdeg[u] {
			return fmt.Errorf("graph: cached weighted degree %d of vertex %d != actual %d", g.wdeg[u], u, wd)
		}
		if wd > maxWDeg {
			maxWDeg = wd
		}
	}
	if m != g.m {
		return fmt.Errorf("graph: cached edge count %d != actual %d", g.m, m)
	}
	if ew != g.ew {
		return fmt.Errorf("graph: cached edge weight %d != actual %d", g.ew, ew)
	}
	if maxDeg != g.maxDeg {
		return fmt.Errorf("graph: cached max degree %d != actual %d", g.maxDeg, maxDeg)
	}
	if maxWDeg != g.maxWDeg {
		return fmt.Errorf("graph: cached max weighted degree %d != actual %d", g.maxWDeg, maxWDeg)
	}
	var vw int64
	var maxVW int32 = 1
	for v := int32(0); int(v) < g.n; v++ {
		w := g.VertexWeight(v)
		if w <= 0 {
			return fmt.Errorf("graph: non-positive vertex weight %d at vertex %d", w, v)
		}
		if w > maxVW {
			maxVW = w
		}
		vw += int64(w)
	}
	if vw != g.vwUp {
		return fmt.Errorf("graph: cached vertex weight %d != actual %d", g.vwUp, vw)
	}
	if maxVW != g.maxVW {
		return fmt.Errorf("graph: cached max vertex weight %d != actual %d", g.maxVW, maxVW)
	}
	return nil
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d avgdeg=%.2f}", g.N(), g.M(), g.AvgDegree())
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// insertions of the same undirected edge are merged by summing weights
// (this is what contraction needs); self-loops are rejected at Build time
// unless dropped with AddEdgeSafe-style pre-checks by the caller.
type Builder struct {
	n   int
	vw  []int32
	us  []int32
	vs  []int32
	ws  []int32
	err error
}

// MaxVertices bounds graph sizes accepted by Builder (and therefore by
// every parser): 2²⁷ ≈ 134M vertices. The cap exists so that malformed
// or hostile inputs declaring absurd vertex counts fail fast instead of
// exhausting memory; it admits the 10^7-vertex instances the scale
// bench drives while staying well below every int32 limit on the
// construction path — vertex ids and bucket links stay exact through
// 2³¹−1.
const MaxVertices = 1 << 27

// MaxEdges bounds the undirected edge count of every graph: Builder,
// FromCSR, the edge-list parser (against the header, before the body is
// read) and the BCSR loader all refuse more. Its 2·MaxEdges half-edges
// are the most int32 CSR offsets can index — 8 GiB of edge storage.
const MaxEdges = 1<<30 - 1

// ErrTooLarge is wrapped by every refusal of a graph beyond MaxVertices
// or MaxEdges, whichever construction or parsing path met it.
var ErrTooLarge = errors.New("graph exceeds size limit")

// tooLarge reports a count over its limit, wrapping ErrTooLarge.
func tooLarge(what string, got, limit uint64) error {
	return fmt.Errorf("graph: %s %d exceeds limit %d: %w", what, got, limit, ErrTooLarge)
}

// NewBuilder returns a Builder for a graph on n vertices with unit vertex
// weights.
func NewBuilder(n int) *Builder {
	if n < 0 {
		return &Builder{err: fmt.Errorf("graph: negative vertex count %d", n)}
	}
	if n > MaxVertices {
		return &Builder{err: tooLarge("vertex count", uint64(n), MaxVertices)}
	}
	return &Builder{n: n}
}

// SetVertexWeight sets the weight of vertex v. Weights default to 1.
func (b *Builder) SetVertexWeight(v int32, w int32) {
	if b.err != nil {
		return
	}
	if v < 0 || int(v) >= b.n {
		b.err = fmt.Errorf("graph: SetVertexWeight vertex %d out of range [0,%d)", v, b.n)
		return
	}
	if w <= 0 {
		b.err = fmt.Errorf("graph: SetVertexWeight non-positive weight %d", w)
		return
	}
	if b.vw == nil {
		b.vw = make([]int32, b.n)
		for i := range b.vw {
			b.vw[i] = 1
		}
	}
	b.vw[v] = w
}

// AddEdge records the undirected unit-weight edge {u,v}.
func (b *Builder) AddEdge(u, v int32) { b.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge records the undirected edge {u,v} with weight w.
// Repeated insertions of the same pair are merged by summing weights.
func (b *Builder) AddWeightedEdge(u, v int32, w int32) {
	if b.err != nil {
		return
	}
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		b.err = fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
		return
	}
	if u == v {
		b.err = fmt.Errorf("graph: self-loop at vertex %d", u)
		return
	}
	if w <= 0 {
		b.err = fmt.Errorf("graph: non-positive edge weight %d on {%d,%d}", w, u, v)
		return
	}
	if u > v {
		u, v = v, u
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.ws = append(b.ws, w)
}

// Build finalizes the graph: it merges duplicate edges, lays the
// half-edges out in CSR order with each list sorted by head vertex, and
// computes the cached totals and per-vertex degree summaries.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	// Sort edge triples by (u, v) to merge duplicates in one pass.
	idx := make([]int, len(b.us))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool {
		i, j := idx[x], idx[y]
		if b.us[i] != b.us[j] {
			return b.us[i] < b.us[j]
		}
		return b.vs[i] < b.vs[j]
	})

	g := &Graph{n: b.n}
	deg := make([]int32, b.n)
	// First pass: merged edge list and degrees.
	type triple struct{ u, v, w int32 }
	merged := make([]triple, 0, len(idx))
	for k := 0; k < len(idx); {
		i := idx[k]
		u, v := b.us[i], b.vs[i]
		var w int64
		for k < len(idx) && b.us[idx[k]] == u && b.vs[idx[k]] == v {
			w += int64(b.ws[idx[k]])
			k++
		}
		if w > 1<<30 {
			return nil, fmt.Errorf("graph: merged weight %d on edge {%d,%d} overflows", w, u, v)
		}
		merged = append(merged, triple{u, v, int32(w)})
		deg[u]++
		deg[v]++
	}
	if len(merged) > MaxEdges {
		return nil, tooLarge("edge count", uint64(len(merged)), MaxEdges)
	}
	// CSR offsets by prefix sum, then scatter the half-edges with a
	// per-vertex cursor.
	g.off = make([]int32, b.n+1)
	for v := 0; v < b.n; v++ {
		g.off[v+1] = g.off[v] + deg[v]
	}
	g.edges = make([]Edge, 2*len(merged))
	cur := make([]int32, b.n)
	copy(cur, g.off)
	for _, t := range merged {
		g.edges[cur[t.u]] = Edge{To: t.v, W: t.w}
		cur[t.u]++
		g.edges[cur[t.v]] = Edge{To: t.u, W: t.w}
		cur[t.v]++
		g.m++
		g.ew += int64(t.w)
	}
	// merged is sorted by (u, v): vertex u's forward half-edges (to v > u)
	// arrive in sorted order, and so do its reverse half-edges (from
	// u' < u, emitted in increasing u'), but the two runs interleave —
	// sort each list once to establish the by-To order EdgeWeight relies
	// on.
	for v := 0; v < b.n; v++ {
		lo, hi := g.rowBounds(int32(v))
		a := g.edges[lo:hi]
		sort.Slice(a, func(i, j int) bool { return a[i].To < a[j].To })
	}
	g.wdeg = make([]int64, b.n)
	for v := 0; v < b.n; v++ {
		var wd int64
		for _, e := range g.Neighbors(int32(v)) {
			wd += int64(e.W)
		}
		g.wdeg[v] = wd
		if wd > g.maxWDeg {
			g.maxWDeg = wd
		}
		if d := int(deg[v]); d > g.maxDeg {
			g.maxDeg = d
		}
	}
	g.maxVW = 1
	if b.vw != nil {
		g.vw = b.vw
		for _, w := range b.vw {
			g.vwUp += int64(w)
			if w > g.maxVW {
				g.maxVW = w
			}
		}
	} else {
		g.vwUp = int64(b.n)
	}
	return g, nil
}

// MustBuild is Build but panics on error; for use in tests and generators
// whose inputs are validated upstream.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
