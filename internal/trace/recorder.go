package trace

// Recorder is a ring-buffered in-memory observer. With a positive
// capacity it keeps the most recent events and counts the rest as
// dropped; with capacity ≤ 0 it grows without bound. The zero Recorder
// is an unbounded recorder ready for use.
//
// Recorder is how concurrent work keeps one deterministic stream: the
// harness gives each table row its own Recorder and, after the rows
// join, replays them in row order (ReplayTo), so the delivered stream
// does not depend on goroutine scheduling.
type Recorder struct {
	capacity int
	buf      []Event
	head     int   // index of the oldest event once the ring has wrapped
	wrapped  bool  // true once len(buf) == capacity and overwriting began
	dropped  int64 // events overwritten (bounded mode only)
}

// NewRecorder returns a Recorder keeping at most capacity events
// (capacity ≤ 0 means unbounded).
func NewRecorder(capacity int) *Recorder {
	r := &Recorder{capacity: capacity}
	if capacity > 0 {
		r.buf = make([]Event, 0, capacity)
	}
	return r
}

// Observe implements Observer.
func (r *Recorder) Observe(e Event) {
	if r.capacity <= 0 {
		r.buf = append(r.buf, e)
		return
	}
	if len(r.buf) < r.capacity {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.head] = e
	r.head++
	if r.head == r.capacity {
		r.head = 0
	}
	r.wrapped = true
	r.dropped++
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return len(r.buf) }

// Dropped returns how many events were overwritten by ring wrap-around.
func (r *Recorder) Dropped() int64 { return r.dropped }

// Events returns the retained events oldest-first as a fresh slice.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	if r.wrapped {
		out = append(out, r.buf[r.head:]...)
		out = append(out, r.buf[:r.head]...)
		return out
	}
	return append(out, r.buf...)
}

// Reset discards all retained events and the dropped count.
func (r *Recorder) Reset() {
	r.buf = r.buf[:0]
	r.head = 0
	r.wrapped = false
	r.dropped = 0
}

// ReplayTo forwards the retained events oldest-first to obs. It is a
// no-op when obs is nil.
func (r *Recorder) ReplayTo(obs Observer) {
	if obs == nil {
		return
	}
	if r.wrapped {
		for _, e := range r.buf[r.head:] {
			obs.Observe(e)
		}
		for _, e := range r.buf[:r.head] {
			obs.Observe(e)
		}
		return
	}
	for _, e := range r.buf {
		obs.Observe(e)
	}
}
