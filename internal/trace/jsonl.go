package trace

import (
	"encoding/json"
	"io"
)

// JSONL streams every event as one JSON object per line (JSON Lines).
// Field order follows the Event struct declaration, so — with Timing
// left false — identical seeds produce byte-identical output across
// runs and machines; this is the property the golden-fixture tests and
// the regression-artifact workflow rely on.
//
// JSONL is not safe for concurrent use; parallel harness rows buffer
// into per-row Recorders and replay sequentially (see
// Recorder.ReplayTo), which is also what keeps the output deterministic.
type JSONL struct {
	// Timing, when true, preserves the ElapsedNS/AllocBytes fields.
	// They are wall-clock measurements and differ run to run, so the
	// default (false) zeroes them to keep the stream reproducible.
	Timing bool

	w   io.Writer
	err error
}

// NewJSONL returns a JSONL observer writing to w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

// Observe implements Observer. The first write error is retained (see
// Err) and subsequent events are discarded.
func (j *JSONL) Observe(e Event) {
	if j.err != nil {
		return
	}
	if !j.Timing {
		e.ElapsedNS = 0
		e.AllocBytes = 0
	}
	line, err := json.Marshal(e)
	if err != nil {
		j.err = err
		return
	}
	line = append(line, '\n')
	if _, err := j.w.Write(line); err != nil {
		j.err = err
	}
}

// Err returns the first error encountered while writing, if any.
func (j *JSONL) Err() error { return j.err }
