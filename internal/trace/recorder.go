package trace

// Recorder is an in-memory observer that keeps every event. The zero
// Recorder is ready for use.
type Recorder struct {
	buf []Event
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Observe implements Observer.
func (r *Recorder) Observe(e Event) { r.buf = append(r.buf, e) }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.buf) }

// Events returns the recorded events oldest-first as a fresh slice.
func (r *Recorder) Events() []Event {
	return append(make([]Event, 0, len(r.buf)), r.buf...)
}

// Reset discards all recorded events.
func (r *Recorder) Reset() { r.buf = r.buf[:0] }
