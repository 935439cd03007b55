package coarsen

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// This file parallelizes the contraction kernel's row construction. The
// serial kernel packs coarse rows left to right with one cursor; the
// sharded kernel reproduces the exact same bytes in two phases:
//
//	count  — each shard walks its contiguous range of coarse vertices
//	         and records the row's distinct-neighbor count in off[cv+1],
//	         deduplicating through a per-shard epoch-stamped seen map.
//	prefix — a serial prefix sum turns counts into the very offsets the
//	         serial cursor would have produced.
//	write  — each shard fills its rows in the now-known disjoint ranges,
//	         folding parallel edges and sorting each row, exactly like
//	         the serial kernel.
//
// Row contents are order-independent (folds are sums, rows end sorted),
// so the output CSR is byte-identical to the serial kernel's for any
// shard count — the equivalence test pins this. The coarse-id
// assignment, member, and vertex-weight loops stay serial: they are
// cheap O(n) sweeps with sequential dependencies.

// ParallelMinVertices is the fine-graph vertex count below which
// contraction stays serial even with a pool attached; barrier overhead
// dominates under it. A variable only so tests can lower it.
var ParallelMinVertices = 1 << 15

// SetParallel attaches a pool of the given degree to the workspace for
// the sharded contraction. Degree ≤ 1 detaches. Idempotent per degree;
// Close releases the pool.
func (w *Workspace) SetParallel(degree int) {
	if degree == w.poolDeg {
		return
	}
	w.Close()
	w.pool = par.New(degree)
	w.poolDeg = degree
}

// Close releases the workspace's pool (parked goroutines). The
// workspace remains usable serially afterwards.
func (w *Workspace) Close() {
	w.pool.Close()
	w.pool = nil
	w.poolDeg = 0
}

// parallelRows reports whether the sharded row kernel should run for a
// fine graph with n vertices.
func (w *Workspace) parallelRows(n int) bool {
	return w.pool.Degree() > 1 && n >= ParallelMinVertices
}

// cShardRange splits the coarse vertex range across shards.
func cShardRange(s, shards, cn int) (lo, hi int) {
	return s * cn / shards, (s + 1) * cn / shards
}

// ensureCShards sizes the per-shard dedup maps for an n-vertex fine
// graph and binds the phase closures once, keeping the steady state
// allocation-free.
func (w *Workspace) ensureCShards(n, shards int) {
	for len(w.cstamp) < shards {
		w.cstamp = append(w.cstamp, nil)
		w.cpos = append(w.cpos, nil)
		w.cepoch = append(w.cepoch, 0)
		w.cerrs = append(w.cerrs, nil)
	}
	for s := 0; s < shards; s++ {
		if cap(w.cstamp[s]) < n {
			w.cstamp[s] = make([]uint32, n)
			w.cpos[s] = make([]int32, n)
			w.cepoch[s] = 0
		}
		w.cstamp[s] = w.cstamp[s][:n]
		w.cpos[s] = w.cpos[s][:n]
		w.cerrs[s] = nil
	}
	if w.countFn == nil {
		w.countFn = w.countShard
		w.writeFn = w.writeShard
	}
}

// bumpEpoch advances a shard's epoch, clearing its stamp map on the
// rare uint32 wrap.
func bumpEpoch(stamp []uint32, epoch uint32) uint32 {
	epoch++
	if epoch == 0 {
		for i := range stamp {
			stamp[i] = 0
		}
		epoch = 1
	}
	return epoch
}

func (w *Workspace) countShard(s int) {
	g, lv, cn := w.cg, w.clv, w.ccn
	cmap, members, off := lv.con.Map, lv.con.members, lv.off
	stamp, epoch := w.cstamp[s], w.cepoch[s]
	lo, hi := cShardRange(s, w.cshards, cn)
	for cv := lo; cv < hi; cv++ {
		epoch = bumpEpoch(stamp, epoch)
		var cnt int32
		a, b := members[2*cv], members[2*cv+1]
		for k := 0; k < 2; k++ {
			fv := a
			if k == 1 {
				if b < 0 {
					break
				}
				fv = b
			}
			for _, e := range g.Neighbors(fv) {
				cu := cmap[e.To]
				if int(cu) == cv || stamp[cu] == epoch {
					continue
				}
				stamp[cu] = epoch
				cnt++
			}
		}
		off[cv+1] = cnt
	}
	w.cepoch[s] = epoch
}

func (w *Workspace) writeShard(s int) {
	g, lv, cn := w.cg, w.clv, w.ccn
	cmap, members, off, edges := lv.con.Map, lv.con.members, lv.off, lv.edges
	stamp, pos, epoch := w.cstamp[s], w.cpos[s], w.cepoch[s]
	lo, hi := cShardRange(s, w.cshards, cn)
	for cv := lo; cv < hi; cv++ {
		epoch = bumpEpoch(stamp, epoch)
		cur := off[cv]
		a, b := members[2*cv], members[2*cv+1]
		for k := 0; k < 2; k++ {
			fv := a
			if k == 1 {
				if b < 0 {
					break
				}
				fv = b
			}
			for _, e := range g.Neighbors(fv) {
				cu := cmap[e.To]
				if int(cu) == cv {
					continue
				}
				if stamp[cu] == epoch {
					i := pos[cu]
					merged := int64(edges[i].W) + int64(e.W)
					if merged > 1<<30 {
						w.cerrs[s] = overflowErr(int32(cv), cu, merged)
						w.cepoch[s] = epoch
						return
					}
					edges[i].W = int32(merged)
				} else {
					stamp[cu] = epoch
					pos[cu] = cur
					edges[cur] = graph.Edge{To: cu, W: e.W}
					cur++
				}
			}
		}
		graph.SortEdges(edges[off[cv]:cur])
	}
	w.cepoch[s] = epoch
}

// contractRowsParallel builds the coarse rows with the sharded kernel.
// lv.off and lv.edges are already sized; on return lv.off[:cn+1] and
// lv.edges[:lv.off[cn]] hold the same bytes the serial kernel writes.
func (w *Workspace) contractRowsParallel(lv *level, g *graph.Graph, cn int) error {
	shards := w.pool.Degree()
	w.ensureCShards(g.N(), shards)
	w.cg, w.clv, w.ccn, w.cshards = g, lv, cn, shards

	w.pool.Run(shards, w.countFn)
	off := lv.off
	off[0] = 0
	for cv := 0; cv < cn; cv++ {
		off[cv+1] += off[cv]
	}
	w.pool.Run(shards, w.writeFn)
	w.cg, w.clv = nil, nil
	for s := 0; s < shards; s++ {
		if err := w.cerrs[s]; err != nil {
			w.cerrs[s] = nil
			return err
		}
	}
	return nil
}
