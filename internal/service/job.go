package service

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/trace"
)

// State is a job lifecycle state. The machine is documented in
// docs/SERVICE.md ("Job lifecycle"); the service tests assert every
// documented transition.
type State string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: on a worker.
	StateRunning State = "running"
	// StateDone: terminal with a result (possibly a truncated run's valid
	// best-so-far, see Result.Stopped).
	StateDone State = "done"
	// StateFailed: terminal without a result (worker panic, lost graph).
	StateFailed State = "failed"
	// StateCancelled: cancelled while still queued; never ran.
	StateCancelled State = "cancelled"
)

// terminal reports whether s is a terminal state.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec is the client-supplied job specification (POST /v1/jobs body).
// Submission decoding is strict: unknown fields are rejected.
type Spec struct {
	// Graph is a content-hash reference ("sha256:<64 hex>") from
	// POST /v1/graphs.
	Graph string `json:"graph"`
	// Algorithm is a registry name (core.Names).
	Algorithm string `json:"algorithm"`
	// Starts is the number of independent random starts (best cut kept);
	// default 2, capped by Config.MaxStarts.
	Starts int `json:"starts"`
	// Seed makes the job a deterministic function of the spec; default 1.
	Seed uint64 `json:"seed"`
	// TimeoutMS is the per-job wall-clock deadline (0 = none).
	TimeoutMS int64 `json:"timeout_ms"`
	// Budget is the deterministic runctl checkpoint budget (0 = none).
	Budget int64 `json:"budget"`
}

// Result is a finished job's summary (full sides via /result).
type Result struct {
	Cut       int64   `json:"cut"`
	Imbalance int64   `json:"imbalance"`
	Seconds   float64 `json:"seconds"`
	// Stopped is "" for a run that completed naturally, or the truncation
	// reason ("deadline", "budget", "cancelled") of a best-so-far result.
	Stopped string `json:"stopped"`
}

// job is the server-side job state: spec, lifecycle, result, and the
// convergence event log that feeds SSE subscribers. All mutable fields
// are guarded by mu; notify is closed-and-replaced on every append or
// transition so streamers can wait without polling, and done is closed
// exactly once at the terminal transition for long-pollers.
//
// A terminal job whose record is durable is released (docs/SERVICE.md
// "Memory and retention"): it keeps only an index in memory and is
// served from its record, as after a restart.
type job struct {
	id  string
	seq int

	// wmu orders the job's record writes: each write snapshots the job
	// while holding it, so the record that lands last is the latest state.
	// It is taken before mu, never while holding mu.
	wmu sync.Mutex

	mu sync.Mutex
	// g is resolved at submission (or recovery), so graph-cache eviction
	// can never invalidate an accepted job; nil once the job is terminal.
	g           *graph.Graph
	spec        Spec
	state       State
	submittedMS int64
	startedMS   int64
	finishedMS  int64
	result      *Result
	sides       []uint8
	errMsg      string
	userCancel  bool
	cancelRun   func() // interrupts the running job's context; nil unless running
	// unpersisted marks a job whose latest state transition failed to
	// reach disk (degraded persistence): the job keeps serving from
	// memory, flagged "degraded" in its HTTP views, until a later write
	// or the re-arm flush lands its record.
	unpersisted bool
	// released marks a terminal job whose record is durable: sides is
	// nil, events is nil once no subscriber is attached, /result reads
	// the record, and /events serves the terminal frame alone.
	released    bool
	subscribers int // attached SSE streams; they keep events after release

	events   []trace.Event
	recorded int // events stored; survives release and restart
	dropped  int
	eventCap int // per-job copy of Config.MaxEvents
	notify   chan struct{}
	done     chan struct{}
}

func newJob(id string, seq int, spec Spec, g *graph.Graph, nowMS int64, eventCap int) *job {
	if eventCap <= 0 {
		eventCap = defaultMaxEvents
	}
	return &job{
		id: id, seq: seq, spec: spec, g: g,
		state: StateQueued, submittedMS: nowMS, eventCap: eventCap,
		notify: make(chan struct{}), done: make(chan struct{}),
	}
}

// Observe implements trace.Observer: the job's own event log. Called
// from the single worker goroutine running the job. Timing fields are
// zeroed so the stored stream — and therefore every SSE frame — is a
// deterministic function of the job spec (docs/SERVICE.md "Determinism").
func (j *job) Observe(e trace.Event) {
	e.ElapsedNS = 0
	e.AllocBytes = 0
	j.mu.Lock()
	if j.recorded < j.eventCap {
		j.events = append(j.events, e)
		j.recorded++
	} else {
		j.dropped++
	}
	j.wake()
	j.mu.Unlock()
}

// wake signals streamers; callers hold j.mu.
func (j *job) wake() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// subscribe attaches an SSE stream and reports whether it may replay
// the stored events. A released job's stream is its terminal frame
// alone, so subscribe then returns false and attaches nothing; otherwise
// the caller must unsubscribe when the stream ends.
func (j *job) subscribe() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.released {
		return false
	}
	j.subscribers++
	return true
}

// unsubscribe detaches an SSE stream; the last one to leave a released
// job drops its events.
func (j *job) unsubscribe() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.subscribers--
	if j.released && j.subscribers == 0 {
		j.events = nil
	}
}

// eventsFrom returns a copy of the stored events from index i on, the
// terminal flag, and the channel to wait on when the slice is empty and
// the job is not terminal. The (events, terminal) pair is a consistent
// snapshot: a terminal=true return includes every event the job will
// ever have.
func (j *job) eventsFrom(i int) (evs []trace.Event, terminal bool, notify <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < len(j.events) {
		evs = append(evs, j.events[i:]...)
	}
	return evs, j.state.terminal(), j.notify
}

// terminalFrame renders the SSE terminal frame (event name = state).
func (j *job) terminalFrame() (name string, data []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	frame := map[string]any{
		"state":          j.state,
		"events":         j.recorded,
		"events_dropped": j.dropped,
	}
	if j.result != nil {
		frame["cut"] = j.result.Cut
		frame["imbalance"] = j.result.Imbalance
		frame["seconds"] = j.result.Seconds
		frame["stopped"] = j.result.Stopped
	}
	if j.errMsg != "" {
		frame["error"] = j.errMsg
	}
	data, _ = json.Marshal(frame)
	return string(j.state), data
}

// jobView is the wire representation of a job (GET /v1/jobs/{id}) and,
// with Schema and Sides set, the persisted record (bisectd-job/v1).
type jobView struct {
	Schema          string  `json:"schema,omitempty"`
	ID              string  `json:"id"`
	Graph           string  `json:"graph"`
	Algorithm       string  `json:"algorithm"`
	Starts          int     `json:"starts"`
	Seed            uint64  `json:"seed"`
	TimeoutMS       int64   `json:"timeout_ms"`
	Budget          int64   `json:"budget"`
	State           State   `json:"state"`
	SubmittedUnixMS int64   `json:"submitted_unix_ms"`
	StartedUnixMS   int64   `json:"started_unix_ms,omitempty"`
	FinishedUnixMS  int64   `json:"finished_unix_ms,omitempty"`
	Events          int     `json:"events"`
	EventsDropped   int     `json:"events_dropped"`
	Result          *Result `json:"result,omitempty"`
	Error           string  `json:"error,omitempty"`
	// Sides is persisted (base64 of the 0/1 bytes) for done jobs so a
	// restarted daemon keeps serving full results; the HTTP job object
	// never includes it (GET /v1/jobs/{id}/result expands it instead).
	Sides []byte `json:"sides,omitempty"`
	// Persistence is "degraded" on HTTP views of a job whose latest
	// record failed to reach disk (the ack is non-durable: a crash before
	// the store re-arms loses the job). Never set on persisted records —
	// bytes that did land are by definition not degraded.
	Persistence string `json:"persistence,omitempty"`
}

// view snapshots the job for the HTTP API (no schema, no sides).
func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked(false)
}

// record snapshots the job as a persistence record.
func (j *job) record() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked(true)
}

func (j *job) viewLocked(record bool) jobView {
	v := jobView{
		ID:              j.id,
		Graph:           j.spec.Graph,
		Algorithm:       j.spec.Algorithm,
		Starts:          j.spec.Starts,
		Seed:            j.spec.Seed,
		TimeoutMS:       j.spec.TimeoutMS,
		Budget:          j.spec.Budget,
		State:           j.state,
		SubmittedUnixMS: j.submittedMS,
		StartedUnixMS:   j.startedMS,
		FinishedUnixMS:  j.finishedMS,
		Events:          j.recorded,
		EventsDropped:   j.dropped,
		Error:           j.errMsg,
	}
	if j.result != nil {
		r := *j.result
		v.Result = &r
	}
	if record {
		v.Schema = jobSchema
		v.Sides = j.sides
	} else if j.unpersisted {
		v.Persistence = "degraded"
	}
	return v
}

// setUnpersisted flags the job's latest record as non-durable.
func (j *job) setUnpersisted() {
	j.mu.Lock()
	j.unpersisted = true
	j.mu.Unlock()
}

// setDurable notes that rec, a snapshot of the job, reached disk. A
// terminal record makes the job released: the sides are dropped now and
// the events once no SSE subscriber is attached.
func (j *job) setDurable(rec jobView) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.unpersisted = false
	if !rec.State.terminal() {
		return
	}
	j.released = true
	j.sides = nil
	if j.subscribers == 0 {
		j.events = nil
	}
}

// isReleased reports whether the job's terminal record is durable, so no
// later write may replace it (the job no longer holds its sides).
func (j *job) isReleased() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.released
}

// isUnpersisted reports whether the job's latest record is non-durable.
func (j *job) isUnpersisted() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.unpersisted
}

// doneResult returns a done job's result and sides; res is nil unless
// the job is done, and released means the sides live only in the job's
// durable record.
func (j *job) doneResult() (res *Result, sides []uint8, released bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone || j.result == nil {
		return nil, nil, false
	}
	return j.result, j.sides, j.released
}

// resultJSON renders GET /v1/jobs/{id}/result.
func resultJSON(id string, res *Result, sides []uint8) map[string]any {
	out := make([]int, len(sides))
	for i, s := range sides {
		out[i] = int(s)
	}
	return map[string]any{
		"id":        id,
		"cut":       res.Cut,
		"imbalance": res.Imbalance,
		"seconds":   res.Seconds,
		"stopped":   res.Stopped,
		"sides":     out,
	}
}

// complete transitions running → done.
func (j *job) complete(res Result, sides []uint8, nowMS int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateDone
	j.result = &res
	j.sides = sides
	j.finishedMS = nowMS
	j.cancelRun = nil
	j.g = nil
	close(j.done)
	j.wake()
}

// fail transitions to failed (no result).
func (j *job) fail(msg string, nowMS int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateFailed
	j.errMsg = msg
	j.finishedMS = nowMS
	j.cancelRun = nil
	j.g = nil
	close(j.done)
	j.wake()
}

// requeue returns an interrupted-by-shutdown run to the queue: state
// back to queued with the event log cleared, so the deterministic re-run
// regenerates an identical stream from scratch.
func (j *job) requeue() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateQueued
	j.startedMS = 0
	j.cancelRun = nil
	j.events = nil
	j.recorded = 0
	j.dropped = 0
	j.wake()
}

func (j *job) String() string { return fmt.Sprintf("job %s (%s)", j.id, j.state) }
