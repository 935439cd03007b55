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
// a linear probe. The summaries the algorithms consult every pass — the
// maximum weighted degree (the gain-bucket bound), the maximum vertex
// weight, the totals — are computed once at Build time and served in
// O(1); the only per-vertex arrays are the offsets, the half-edges and
// the optional vertex weights.
package graph

import (
	"errors"
	"fmt"
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
	m     int   // number of undirected edges
	ew    int64 // total edge weight
	vwUp  int64 // total vertex weight

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

// WeightedDegree returns the sum of edge weights incident to v, summed
// over v's row (O(degree)).
func (g *Graph) WeightedDegree(v int32) int64 {
	var wd int64
	for _, e := range g.Neighbors(v) {
		wd += int64(e.W)
	}
	return wd
}

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

// Validate checks the structural invariants: adjacency symmetry with equal
// weights, sorted lists, no self-loops, no parallel edges, positive
// weights, and consistent cached totals. It returns the first violation
// found. The per-row checks and the totals are ResetCSR's, run over g's
// own arrays into a scratch Graph; symmetry is checked last.
func (g *Graph) Validate() error {
	var s Graph
	if err := s.ResetCSR(g.off, g.edges, g.vw); err != nil {
		return err
	}
	if s.n != g.n {
		return fmt.Errorf("graph: offset array has %d entries for %d vertices", len(g.off), g.n)
	}
	for _, c := range []struct {
		what           string
		cached, actual int64
	}{
		{"edge count", int64(g.m), int64(s.m)},
		{"edge weight", g.ew, s.ew},
		{"max degree", int64(g.maxDeg), int64(s.maxDeg)},
		{"max weighted degree", g.maxWDeg, s.maxWDeg},
		{"vertex weight", g.vwUp, s.vwUp},
		{"max vertex weight", int64(g.maxVW), int64(s.maxVW)},
	} {
		if c.cached != c.actual {
			return fmt.Errorf("graph: cached %s %d != actual %d", c.what, c.cached, c.actual)
		}
	}
	return checkSymmetry(g)
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d avgdeg=%.2f}", g.N(), g.M(), g.AvgDegree())
}

// Builder accumulates edges and produces an immutable Graph; it is the
// one way to construct a graph from an edge multiset, for the edge-list
// parser and the generators of internal/gen alike. Duplicate insertions
// of the same undirected edge are merged by summing weights (this is
// what contraction needs). AddWeightedEdge refuses self-loops,
// out-of-range endpoints and non-positive weights, and Build reports the
// first such refusal.
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
// exhausting memory, and it stays well below every int32 limit on the
// construction path — vertex ids and bucket links stay exact through
// 2³¹−1.
const MaxVertices = 1 << 27

// MaxEdges bounds the undirected edge count of every graph: the Builder
// (against its records, before merging), the edge-list parser (against
// the header, before the body is read) and the BCSR loader all refuse
// more. Its 2·MaxEdges half-edges are the most int32 CSR offsets can
// index — 8 GiB of edge storage.
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
// A record past the MaxEdges-th is refused with ErrTooLarge, so Build's
// int32 row offsets cannot overflow.
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
	if len(b.us) == MaxEdges {
		b.err = tooLarge("edge record count", MaxEdges+1, MaxEdges)
		return
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.ws = append(b.ws, w)
}

// Build finalizes the graph: it scatters both half-edges of every record
// into its endpoints' rows, sorts each row by head vertex, merges
// repeated neighbours by summing their weights, and hands the rows to
// ResetCSR, which checks them and computes the cached totals and degree
// bounds.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	// Count each row's half-edges into off[v] and prefix-sum, so off[v]
	// is the end of v's row; the scatter then decrements it to the row's
	// start. Scattering the records last to first leaves each row in
	// insertion order, which the generators emit nearly sorted.
	n := b.n
	off := make([]int32, n+1)
	for i := range b.us {
		off[b.us[i]]++
		off[b.vs[i]]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	edges := make([]Edge, off[n])
	for i := len(b.us) - 1; i >= 0; i-- {
		u, v, w := b.us[i], b.vs[i], b.ws[i]
		off[u]--
		edges[off[u]] = Edge{To: v, W: w}
		off[v]--
		edges[off[v]] = Edge{To: u, W: w}
	}
	// Sort each row and merge its repeated neighbours, compacting the
	// rows leftwards in place.
	var k int32
	for v := 0; v < n; v++ {
		row := edges[off[v]:off[v+1]]
		off[v] = k
		sortEdges(row)
		for i := 0; i < len(row); {
			to, w := row[i].To, int64(row[i].W)
			for i++; i < len(row) && row[i].To == to; i++ {
				w += int64(row[i].W)
			}
			if w > 1<<30 {
				return nil, fmt.Errorf("graph: merged weight %d on edge {%d,%d} overflows", w, v, to)
			}
			edges[k] = Edge{To: to, W: int32(w)}
			k++
		}
	}
	off[n] = k
	g := &Graph{}
	if err := g.ResetCSR(off, edges[:k], b.vw); err != nil {
		return nil, err
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
