// Package trace is the repository's observability layer: a small event
// model that exposes the *dynamics* of the bisection algorithms — KL's
// per-pass convergence, SA's temperature/acceptance decay, and the
// compaction pipeline's level-by-level progress — to
// pluggable observers, without perturbing the algorithms themselves.
//
// The contract has three parts:
//
//   - Zero overhead when absent. Every emitter guards with a nil check
//     (`if obs == nil` — no events, no clock reads, no allocations), so a
//     run without an observer executes exactly the pre-instrumentation
//     code path. The KL/SA benchmarks regress by nothing measurable.
//
//   - Determinism. Observers never touch the algorithms' random streams,
//     so attaching or detaching one cannot change a result. Event streams
//     themselves are deterministic functions of the seed: every run,
//     and every harness table, executes on one goroutine. The only
//     non-deterministic fields are the wall-clock and allocation
//     counters (ElapsedNS, AllocBytes); the serializing observers zero
//     them unless explicitly asked for timing, which is why identical
//     seeds yield byte-identical JSONL.
//
//   - Single-goroutine delivery. An observer attached to one algorithm
//     run is called from one goroutine at a time, so observers do not
//     need internal locking.
//
// Concrete observers: Recorder (ring-buffered in-memory) and JSONL
// (streaming one JSON object per line, the one trace file format).
// WithStart and WithLabel stamp events with a start index or a row label
// as they pass through.
//
// The full field-by-field schema is documented in docs/OBSERVABILITY.md.
package trace

// Type discriminates trace events. The values are the JSON wire
// names; they are stable and may be relied on by external tooling.
type Type string

const (
	// TypeMoveBatch is an intra-pass (KL) or intra-temperature (SA)
	// progress sample, emitted every MoveBatchSize tentative moves (or
	// SAMoveBatchSize trials) plus once for the final partial batch.
	TypeMoveBatch Type = "move_batch"
	// TypePassDone is emitted by KL after each refinement pass.
	TypePassDone Type = "pass_done"
	// TypeTempDone is emitted by SA after each temperature plateau.
	TypeTempDone Type = "temp_done"
	// TypeLevelDone is emitted by the compaction/multilevel pipeline
	// after each coarsening contraction, the coarsest solve, and each
	// uncoarsening projection+refinement.
	TypeLevelDone Type = "level_done"
	// TypeRunDone is emitted once at the end of a refinement run (and by
	// drivers such as BestOf and the harness) with run totals.
	TypeRunDone Type = "run_done"
)

// Event is the single flat record every observer receives. Fields are a
// union over event types; unused fields are zero and (except for the
// always-present core fields) omitted from JSON. See docs/OBSERVABILITY.md
// for which fields each Type populates.
type Event struct {
	// Type is the event discriminator.
	Type Type `json:"type"`
	// Algo identifies the emitter: "kl", "sa", "coarsen", or a
	// composed driver name ("ckl", "kl×2"). The harness's own run_done
	// carries the cell's algorithm name and Phase "harness".
	Algo string `json:"algo"`
	// Start is the index of the enclosing multi-start driver's start
	// (BestOf, which cmd/bisect, bisectd and the harness run); 0 when
	// there is none. A nested driver overwrites the stamp of its inner
	// runs.
	Start int `json:"start"`
	// Index is the primary ordinal of the event: pass number, temperature
	// step, level number, batch number within the pass/temperature, or —
	// for run_done — the total number of passes, temperatures or starts
	// executed.
	Index int `json:"index"`
	// Phase distinguishes level_done sub-kinds ("coarsen", "initial",
	// "uncoarsen") and marks harness-emitted run_done events ("harness").
	Phase string `json:"phase,omitempty"`
	// Label carries the harness row label (e.g. "b=16") when the event
	// was recorded under a table row; empty otherwise.
	Label string `json:"label,omitempty"`

	// Cut is the current cut after the event; BestCut the best cut seen
	// so far in the enclosing run (for KL passes the two coincide,
	// since a kept prefix never worsens the cut).
	Cut     int64 `json:"cut"`
	BestCut int64 `json:"best_cut"`
	// Imbalance is |w(V0) − w(V1)| after the event (SA states may be
	// unbalanced).
	Imbalance int64 `json:"imbalance,omitempty"`

	// Gain is the cumulative kept gain: for pass_done the pass's cut
	// improvement, for move_batch the running tentative-prefix gain, for
	// run_done the whole run's improvement.
	Gain int64 `json:"gain,omitempty"`
	// MaxGain is the largest single pair/move gain observed in the batch
	// or pass.
	MaxGain int64 `json:"max_gain,omitempty"`
	// Moves counts kept pair-swaps (KL) or tentative moves so far
	// within a pass (move_batch).
	Moves int `json:"moves,omitempty"`
	// Scanned counts candidate pairs examined by KL's selection scan.
	Scanned int64 `json:"scanned,omitempty"`
	// Tentative, on a KL pass_done, counts the pass's tentative exchanges
	// when kl.Options.Lookahead ended the pass before Figure 2's end; 0
	// (and omitted) for every pass that ran in full.
	Tentative int `json:"tentative,omitempty"`

	// Trials and Accepted count SA proposals and acceptances in the
	// temperature (temp_done), batch (move_batch), or run (run_done);
	// AcceptRatio = Accepted/Trials; Temp is the temperature they ran at.
	Trials      int64   `json:"trials,omitempty"`
	Accepted    int64   `json:"accepted,omitempty"`
	AcceptRatio float64 `json:"accept_ratio,omitempty"`
	Temp        float64 `json:"temp,omitempty"`

	// Vertices and Edges describe the graph at a coarsening level.
	Vertices int `json:"vertices,omitempty"`
	Edges    int `json:"edges,omitempty"`

	// ElapsedNS is the wall-clock nanoseconds of the pass, temperature,
	// level, or run; AllocBytes the heap bytes allocated (populated only
	// by cmd/bisect's final run_done). Both are non-deterministic across
	// runs and are zeroed by JSONL unless Timing is set.
	ElapsedNS  int64  `json:"elapsed_ns,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// MoveBatchSize is the KL move_batch granularity: one event per this
// many tentative moves within a pass.
const MoveBatchSize = 64

// SAMoveBatchSize is the SA move_batch granularity: one event per this
// many trials within a temperature.
const SAMoveBatchSize = 4096

// Observer receives trace events. Implementations are called from a
// single goroutine per attached run (see the package comment) and must
// not mutate shared algorithm state; they may retain copies of events.
//
// A nil Observer means "no tracing": every emitter in the repository
// checks for nil before doing any event-related work, including clock
// reads, so the nil path is byte-for-byte the uninstrumented algorithm.
type Observer interface {
	Observe(e Event)
}

// startObserver stamps a start index onto events as they pass through.
type startObserver struct {
	obs   Observer
	start int
}

func (s startObserver) Observe(e Event) {
	e.Start = s.start
	s.obs.Observe(e)
}

// WithStart returns an observer that rewrites every event's Start field
// to start before forwarding to obs. Multi-start drivers use it to label
// sequential starts; returns nil if obs is nil so the fast path survives
// wrapping.
func WithStart(obs Observer, start int) Observer {
	if obs == nil {
		return nil
	}
	return startObserver{obs: obs, start: start}
}

// labelObserver stamps a row label onto events as they pass through.
type labelObserver struct {
	obs   Observer
	label string
}

func (l labelObserver) Observe(e Event) {
	if e.Label == "" {
		e.Label = l.label
	}
	l.obs.Observe(e)
}

// WithLabel returns an observer that sets every unlabeled event's Label
// field to label before forwarding to obs. The harness uses it to stamp
// table-row labels; returns nil if obs is nil.
func WithLabel(obs Observer, label string) Observer {
	if obs == nil {
		return nil
	}
	return labelObserver{obs: obs, label: label}
}
