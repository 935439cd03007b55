package trace

import (
	"encoding/csv"
	"io"
	"strconv"
)

// csvHeader is the fixed column order of CSVCurve output — one column
// per Event field, in declaration order, except Tentative, which the
// column set predates.
var csvHeader = []string{
	"type", "algo", "start", "index", "phase", "label",
	"cut", "best_cut", "imbalance", "gain", "max_gain", "moves", "scanned",
	"trials", "accepted", "accept_ratio", "temp",
	"vertices", "edges", "elapsed_ns", "alloc_bytes",
}

// CSVCurve flattens every event into one CSV row — the convergence-curve
// export: filter rows on type=pass_done (KL) or type=temp_done (SA)
// and plot cut or accept_ratio against index to reproduce the curves
// discussed in docs/ALGORITHMS.md.
//
// Like JSONL, output is deterministic for a fixed seed unless Timing is
// set, and the writer is single-goroutine (parallel drivers replay
// through Recorders). Call Flush when done.
type CSVCurve struct {
	// Timing preserves the wall-clock/allocation columns; when false
	// (the default) they are written as 0 so output is reproducible.
	Timing bool

	w           *csv.Writer
	wroteHeader bool
	err         error
}

// NewCSVCurve returns a CSVCurve observer writing to w. The header row
// is written on the first event.
func NewCSVCurve(w io.Writer) *CSVCurve { return &CSVCurve{w: csv.NewWriter(w)} }

// Observe implements Observer. The first write error is retained (see
// Err) and subsequent events are discarded.
func (c *CSVCurve) Observe(e Event) {
	if c.err != nil {
		return
	}
	if !c.wroteHeader {
		if err := c.w.Write(csvHeader); err != nil {
			c.err = err
			return
		}
		c.wroteHeader = true
	}
	if !c.Timing {
		e.ElapsedNS = 0
		e.AllocBytes = 0
	}
	row := []string{
		string(e.Type), e.Algo,
		strconv.Itoa(e.Start), strconv.Itoa(e.Index), e.Phase, e.Label,
		strconv.FormatInt(e.Cut, 10), strconv.FormatInt(e.BestCut, 10),
		strconv.FormatInt(e.Imbalance, 10),
		strconv.FormatInt(e.Gain, 10), strconv.FormatInt(e.MaxGain, 10),
		strconv.Itoa(e.Moves), strconv.FormatInt(e.Scanned, 10),
		strconv.FormatInt(e.Trials, 10), strconv.FormatInt(e.Accepted, 10),
		strconv.FormatFloat(e.AcceptRatio, 'g', -1, 64),
		strconv.FormatFloat(e.Temp, 'g', -1, 64),
		strconv.Itoa(e.Vertices), strconv.Itoa(e.Edges),
		strconv.FormatInt(e.ElapsedNS, 10), strconv.FormatUint(e.AllocBytes, 10),
	}
	if err := c.w.Write(row); err != nil {
		c.err = err
	}
}

// Flush writes buffered rows to the underlying writer and returns the
// first error encountered.
func (c *CSVCurve) Flush() error {
	c.w.Flush()
	if c.err == nil {
		c.err = c.w.Error()
	}
	return c.err
}

// Err returns the first error encountered while writing, if any.
func (c *CSVCurve) Err() error { return c.err }
