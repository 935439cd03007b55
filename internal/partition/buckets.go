package partition

import "fmt"

// GainBuckets is the classical Fiduccia–Mattheyses bucket structure: a
// dense array of doubly-linked vertex lists indexed by gain, supporting
// O(1) insert/remove/update and amortized-O(1) max extraction. Gains must
// lie in [−maxGain, +maxGain], where maxGain is the maximum weighted
// degree of the graph. The zero value holds no vertices; Reset sizes
// it for a graph.
//
// Within a bucket, vertices are kept in LIFO order, the tie-breaking rule
// of the original FM paper.
//
// Each vertex's state — its list links, the bucket it sits in, and its
// gain — is one 16-byte record, so every list operation touches one
// cache line per vertex. The gain is an int32, which the maxBucketSpan
// cap guarantees is exact.
//
// A present vertex's gain can also be changed in two steps: AddGain
// accumulates deltas into the recorded gain while the vertex stays in
// its bucket, and Settle then moves it to the bucket of that gain. The
// KL pass uses this to apply both halves of a swap before re-slotting
// any neighbor. Between the two steps, Max and the cursors still report
// the bucket a vertex sits in.
type GainBuckets struct {
	maxGain int64
	head    []int32 // bucket index -> first vertex, or -1
	ents    []entry // vertex -> its record
	maxIdx  int     // highest possibly-non-empty bucket (lazily lowered)
	size    int
}

// entry is one vertex's record in a GainBuckets.
type entry struct {
	next, prev int32 // bucket list links, -1 sentinels
	bucket     int32 // bucket index, or -1 when absent
	gain       int32 // gain; differs from the bucket's only between AddGain and Settle
}

// maxBucketSpan bounds the allocated bucket array; 2·span+1 int32 heads.
// Weighted degrees beyond this would indicate misuse (the repository's
// graphs stay in the low thousands).
const maxBucketSpan = 1 << 24

// Reset re-initializes the structure to empty for n vertices with gains
// in [−maxGain, maxGain], reusing the existing arrays whenever they are
// large enough. A warmed-up structure resets without allocating, which is
// what lets the refinement workspaces run steady-state passes at zero
// allocations.
func (gb *GainBuckets) Reset(n int, maxGain int64) error {
	if maxGain < 0 {
		return fmt.Errorf("partition: negative gain bound %d", maxGain)
	}
	if maxGain > maxBucketSpan {
		return fmt.Errorf("partition: gain bound %d exceeds supported span %d", maxGain, maxBucketSpan)
	}
	span := int(2*maxGain + 1)
	if cap(gb.head) < span {
		gb.head = make([]int32, span)
	}
	gb.head = gb.head[:span]
	for i := range gb.head {
		gb.head[i] = -1
	}
	if cap(gb.ents) < n {
		gb.ents = make([]entry, n)
	}
	gb.ents = gb.ents[:n]
	for i := range gb.ents {
		gb.ents[i].bucket = -1
	}
	gb.maxGain = maxGain
	gb.maxIdx = -1
	gb.size = 0
	return nil
}

// Len returns the number of vertices currently in the structure.
func (gb *GainBuckets) Len() int { return gb.size }

func (gb *GainBuckets) idx(gain int64) int32 {
	if gain < -gb.maxGain || gain > gb.maxGain {
		panic(fmt.Sprintf("partition: gain %d outside [−%d, %d]", gain, gb.maxGain, gb.maxGain))
	}
	return int32(gain + gb.maxGain)
}

// Add inserts v with the given gain. v must not be present.
func (gb *GainBuckets) Add(v int32, gain int64) {
	e := &gb.ents[v]
	if e.bucket >= 0 {
		panic("partition: Add of vertex already present")
	}
	gb.place(v, e, gain)
	gb.size++
}

// Remove deletes v. v must be present.
func (gb *GainBuckets) Remove(v int32) {
	e := &gb.ents[v]
	if e.bucket < 0 {
		panic("partition: Remove of absent vertex")
	}
	gb.unlink(e)
	e.bucket = -1
	gb.size--
}

// UpdateIfPresent changes v's gain if v is present, and does nothing
// otherwise. A changed gain re-inserts v at the front of its new bucket;
// an unchanged gain leaves its position alone. It is the one-step
// reference the tests hold AddGain and Settle to.
func (gb *GainBuckets) UpdateIfPresent(v int32, gain int64) {
	if e := &gb.ents[v]; e.bucket >= 0 && int64(e.gain) != gain {
		gb.place(v, e, gain)
	}
}

// AddGain adds delta to the recorded gain of v if v is present, and does
// nothing otherwise. v stays where it is until Settle.
func (gb *GainBuckets) AddGain(v int32, delta int64) {
	if e := &gb.ents[v]; e.bucket >= 0 {
		e.gain += int32(delta)
	}
}

// Settle moves v to the front of its recorded gain's bucket if v is
// present and sits in another bucket. After AddGain calls, Settling each
// touched vertex is exactly UpdateIfPresent with the summed gains: deltas
// that cancel leave v in its LIFO place, and a vertex settled twice moves
// at most once.
func (gb *GainBuckets) Settle(v int32) {
	if e := &gb.ents[v]; e.bucket >= 0 && int64(e.bucket) != int64(e.gain)+gb.maxGain {
		gb.place(v, e, int64(e.gain))
	}
}

// unlink takes the present vertex with record e out of its bucket list.
func (gb *GainBuckets) unlink(e *entry) {
	if e.prev >= 0 {
		gb.ents[e.prev].next = e.next
	} else {
		gb.head[e.bucket] = e.next
	}
	if e.next >= 0 {
		gb.ents[e.next].prev = e.prev
	}
}

// place puts v, whose record is e, at the front of gain's bucket, taking
// it out of the bucket it sits in first if it is present.
func (gb *GainBuckets) place(v int32, e *entry, gain int64) {
	if e.bucket >= 0 {
		gb.unlink(e)
	}
	i := gb.idx(gain)
	h := gb.head[i]
	*e = entry{next: h, prev: -1, bucket: i, gain: int32(gain)}
	if h >= 0 {
		gb.ents[h].prev = v
	}
	gb.head[i] = v
	if int(i) > gb.maxIdx {
		gb.maxIdx = int(i)
	}
}

// Max returns the vertex with maximum gain (LIFO within ties) and its
// gain. ok is false when empty.
func (gb *GainBuckets) Max() (v int32, gain int64, ok bool) {
	for gb.maxIdx >= 0 {
		if h := gb.head[gb.maxIdx]; h >= 0 {
			return h, int64(gb.maxIdx) - gb.maxGain, true
		}
		gb.maxIdx--
	}
	return -1, 0, false
}

// Cursor is a lightweight descending-order iterator over a GainBuckets:
// it visits vertices in non-increasing gain order, LIFO within a bucket,
// through flat, inlinable accessors — the KL pair scan walks two of these
// in a nested loop, where closure dispatch per scanned pair is
// measurable. The structure must not be mutated during the walk.
type Cursor struct {
	gb   *GainBuckets
	i    int   // current bucket index
	v    int32 // current vertex, or -1 when exhausted
	gain int64 // gain of the current bucket
}

// Cursor returns a cursor positioned on the maximum-gain vertex (invalid
// immediately if the structure is empty).
func (gb *GainBuckets) Cursor() Cursor {
	c := Cursor{gb: gb, v: -1}
	c.i = gb.maxIdx
	if top := len(gb.head) - 1; c.i > top {
		c.i = top
	}
	for ; c.i >= 0; c.i-- {
		if h := gb.head[c.i]; h >= 0 {
			c.v = h
			c.gain = int64(c.i) - gb.maxGain
			break
		}
	}
	return c
}

// Valid reports whether the cursor is on a vertex.
func (c *Cursor) Valid() bool { return c.v >= 0 }

// V returns the current vertex; the cursor must be valid.
func (c *Cursor) V() int32 { return c.v }

// Gain returns the current vertex's gain; the cursor must be valid.
func (c *Cursor) Gain() int64 { return c.gain }

// Next advances to the next vertex in non-increasing gain order.
func (c *Cursor) Next() {
	if next := c.gb.ents[c.v].next; next >= 0 {
		c.v = next
		return
	}
	for c.i--; c.i >= 0; c.i-- {
		if h := c.gb.head[c.i]; h >= 0 {
			c.v = h
			c.gain = int64(c.i) - c.gb.maxGain
			return
		}
	}
	c.v = -1
}
