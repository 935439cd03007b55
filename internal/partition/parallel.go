package partition

import "repro/internal/par"

// This file parallelizes the per-move neighbor work of the FM pass
// body — its dominant cost at high degree — while reproducing the serial
// move sequence bit-exactly at any shard count.
//
// A committed move of vertex v costs two sweeps over N(v):
//
//	gains      — every neighbor's cached gain changes by ±2·w(v,u).
//	repositions — every unlocked neighbor is re-slotted in its side's
//	              gain-bucket structure at the new gain.
//
// Both sweeps shard deterministically:
//
//   - The gain sweep splits N(v) into contiguous disjoint ranges.
//     Adjacency rows are strictly sorted (validated at graph build), so
//     every neighbor appears exactly once and each gain[u] has a unique
//     writer; integer addition makes the result independent of shard
//     interleaving.
//   - The reposition sweep runs exactly two shards, one per side. Each
//     side's GainBuckets has a single writer, and shard s replays the
//     serial reposition order restricted to side s — which is precisely
//     the order that produced the serial LIFO bucket layout for that
//     side. The two structures share no state, so the resulting layout
//     (and every later selection decision) is byte-identical to serial.
//
// The kernel only pays off when N(v) is large enough to amortize the
// pool's fork-join barriers; the FM refiner gates it per move on the
// vertex degree (see fm.ParallelMinDegree).

// ShardedMover applies committed refinement moves with the neighbor
// gain updates and bucket repositions sharded over a par.Pool. It is
// embedded in the fm Refiner workspace; Bind rebinds it to a pass's
// bisection and buckets without allocating (the shard closures are
// constructed once and reused), so steady-state passes stay zero-alloc.
// Results are bit-identical to the serial Move/UpdateIfPresent sequence
// at any pool degree, including the nil (inline) pool.
type ShardedMover struct {
	pool    *par.Pool
	b       *Bisection
	bk      [2]*GainBuckets
	gshards int
	// Per-move state read by the pre-bound shard closures: the moved
	// vertex, whose neighbors both phases visit.
	cur    int32
	gainFn func(int)
	posFn  func(int)
}

// Bind attaches the mover to a pass's pool, bisection, and per-side
// buckets. Call Unbind when the pass ends so the mover does not retain
// them. Binding never allocates after the first call.
func (m *ShardedMover) Bind(pool *par.Pool, b *Bisection, bk0, bk1 *GainBuckets) {
	m.pool = pool
	m.b = b
	m.bk[0], m.bk[1] = bk0, bk1
	m.gshards = pool.Degree()
	if m.gainFn == nil {
		m.gainFn = m.gainShard
		m.posFn = m.posShard
	}
}

// Unbind drops the references Bind installed.
func (m *ShardedMover) Unbind() {
	m.pool = nil
	m.b = nil
	m.bk[0], m.bk[1] = nil, nil
}

// Move is the sharded equivalent of
//
//	b.Move(v)
//	for each neighbor u of v: buckets[side(u)].UpdateIfPresent(u, gain(u))
//
// with identical results. The caller removes v from its bucket first,
// exactly as in the serial pass.
func (m *ShardedMover) Move(v int32) {
	m.b.moveScalar(v)
	m.cur = v
	m.pool.Run(m.gshards, m.gainFn)
	m.pool.Run(2, m.posFn)
}

// MoveNoBuckets is the sharded equivalent of b.Move(v) alone — the
// rollback loop's form, after the pass has stopped maintaining buckets.
func (m *ShardedMover) MoveNoBuckets(v int32) {
	m.b.moveScalar(v)
	m.cur = v
	m.pool.Run(m.gshards, m.gainFn)
}

// gainShard applies the gain deltas for a contiguous range of cur's
// adjacency row. Rows are strictly sorted, hence duplicate-free, so the
// writes of distinct shards never touch the same gain slot.
func (m *ShardedMover) gainShard(s int) {
	b := m.b
	nbrs := b.g.Neighbors(m.cur)
	lo := s * len(nbrs) / m.gshards
	hi := (s + 1) * len(nbrs) / m.gshards
	side, gain := b.side, b.gain
	sv := side[m.cur]
	for _, e := range nbrs[lo:hi] {
		d := int64(e.W) << 1
		mm := int64(side[e.To]^sv) - 1
		gain[e.To] += (d ^ mm) - mm
	}
}

// posShard re-slots the moved vertex's unlocked neighbors on side s —
// the serial reposition order restricted to one side, against a bucket
// structure only this shard writes.
func (m *ShardedMover) posShard(s int) {
	b, bk := m.b, m.bk[s]
	side, gain := b.side, b.gain
	us := uint8(s)
	for _, e := range b.g.Neighbors(m.cur) {
		if side[e.To] == us {
			bk.UpdateIfPresent(e.To, gain[e.To])
		}
	}
}
