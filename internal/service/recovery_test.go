package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fsx"
	"repro/internal/partition"
)

// TestRestartRecovery pins docs/SERVICE.md "Persistence format": after a
// daemon restart on the same state directory, terminal jobs keep serving
// their full results without re-running, unfinished jobs (queued or
// running at shutdown) are re-queued and re-run to deterministic
// results, and persisted graphs remain resolvable.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 300, 4, 31)

	srv1, err := New(Config{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	ref := uploadGraph(t, ts1, g)

	// A quick job runs to completion before the restart.
	idDone := submitJob(t, ts1, map[string]any{"graph": ref, "algorithm": "kl", "starts": 2, "seed": 6})
	if v := waitTerminal(t, ts1, idDone); v.State != StateDone {
		t.Fatalf("quick job ended %q (%s)", v.State, v.Error)
	}
	resBefore := resultOf(t, ts1, idDone)

	// A long job occupies the single worker; a budgeted job waits behind
	// it. Shutdown catches one running and one queued.
	idLong := submitJob(t, ts1, map[string]any{
		"graph": ref, "algorithm": "kl", "starts": 4096, "seed": 8, "timeout_ms": 2000,
	})
	for i := 0; ; i++ {
		var v jobView
		doJSON(t, http.MethodGet, ts1.URL+"/v1/jobs/"+idLong, nil, &v)
		if v.State == StateRunning {
			break
		}
		if i > 2000 {
			t.Fatalf("long job never started (state %q)", v.State)
		}
		time.Sleep(time.Millisecond)
	}
	budgetSpec := map[string]any{"graph": ref, "algorithm": "ckl", "starts": 4096, "seed": 12, "budget": 64}
	idQueued := submitJob(t, ts1, budgetSpec)

	ts1.Close()
	srv1.Close() // interrupts the running job; both unfinished jobs persist as queued

	srv2, err := New(Config{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		srv2.Close()
	})

	// The finished job survived with its full result, not a re-run: the
	// persisted record still carries the original completion time.
	var vDone jobView
	doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+idDone, nil, &vDone)
	if vDone.State != StateDone {
		t.Fatalf("finished job recovered as %q", vDone.State)
	}
	resAfter := resultOf(t, ts2, idDone)
	if resAfter.Cut != resBefore.Cut || len(resAfter.Sides) != len(resBefore.Sides) {
		t.Fatalf("recovered result diverged: cut %d vs %d", resAfter.Cut, resBefore.Cut)
	}
	for i := range resAfter.Sides {
		if resAfter.Sides[i] != resBefore.Sides[i] {
			t.Fatalf("recovered sides diverge at vertex %d", i)
		}
	}

	// The persisted graph is resolvable on the new instance.
	if resp := doJSON(t, http.MethodGet, ts2.URL+"/v1/graphs/"+ref, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered graph lookup: HTTP %d", resp.StatusCode)
	}

	// Both unfinished jobs re-ran to terminal states.
	vLong := waitTerminal(t, ts2, idLong)
	if vLong.State != StateDone {
		t.Fatalf("interrupted job re-ran to %q (%s)", vLong.State, vLong.Error)
	}
	vQueued := waitTerminal(t, ts2, idQueued)
	if vQueued.State != StateDone || vQueued.Result.Stopped != "budget" {
		t.Fatalf("queued job re-ran to %q stopped=%q (%s)", vQueued.State, stoppedOf(vQueued), vQueued.Error)
	}

	// Deterministic re-run: the recovered budgeted job equals a fresh
	// submission of the same spec.
	vFresh := waitTerminal(t, ts2, submitJob(t, ts2, budgetSpec))
	if vFresh.State != StateDone || vFresh.Result.Cut != vQueued.Result.Cut {
		t.Fatalf("re-run not deterministic: recovered cut %d, fresh cut %d",
			vQueued.Result.Cut, vFresh.Result.Cut)
	}
}

func stoppedOf(v jobView) string {
	if v.Result == nil {
		return "<no result>"
	}
	return v.Result.Stopped
}

// TestRestartKeepsEventCounts: a finished job's events and
// events_dropped are the recorded counts, in its view and its terminal
// frame, before and after a restart.
func TestRestartKeepsEventCounts(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir, Workers: 1, MaxEvents: 5}
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	ref := uploadGraph(t, ts1, testGraph(t, 300, 4, 31))
	id := submitJob(t, ts1, map[string]any{"graph": ref, "algorithm": "kl", "starts": 2, "seed": 6})
	before := waitTerminal(t, ts1, id)
	if before.State != StateDone || before.Events != 5 || before.EventsDropped == 0 {
		t.Fatalf("job ended %q with %d events, %d dropped; want done, 5, some", before.State, before.Events, before.EventsDropped)
	}
	ts1.Close()
	srv1.Close()

	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		srv2.Close()
	})
	var after jobView
	doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+id, nil, &after)
	if after.Events != before.Events || after.EventsDropped != before.EventsDropped {
		t.Fatalf("after a restart the job reports %d events, %d dropped; before it %d, %d",
			after.Events, after.EventsDropped, before.Events, before.EventsDropped)
	}
	frames := sseFrames(t, ts2, id, "")
	var term struct {
		Events        int `json:"events"`
		EventsDropped int `json:"events_dropped"`
	}
	if len(frames) != 1 || json.Unmarshal([]byte(frames[0].data), &term) != nil ||
		term.Events != before.Events || term.EventsDropped != before.EventsDropped {
		t.Fatalf("after a restart the stream is %+v, want one terminal frame with %d events, %d dropped",
			frames, before.Events, before.EventsDropped)
	}
}

// TestRestartRetiredAlgorithms: a state directory may hold records that
// name an algorithm the registry no longer has. After a restart the
// unfinished one fails with an error naming the unknown bisector, the
// finished one keeps serving its result and terminal frame from its
// record, an ordinary job beside them completes, and the daemon stays
// up.
func TestRestartRetiredAlgorithms(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 120, 4, 23)
	srv1, err := New(Config{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	ref := uploadGraph(t, ts1, g)
	ts1.Close()
	srv1.Close()

	st, err := newStore(dir, fsx.OS)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixMilli()
	sides := make([]byte, g.N())
	for v := g.N() / 2; v < g.N(); v++ {
		sides[v] = 1
	}
	cut := partition.CutOf(g, sides)
	recs := []jobView{
		{ID: "j-000001-00000001", Algorithm: "fm", State: StateQueued},
		{ID: "j-000002-00000002", Algorithm: "greedy", State: StateDone,
			StartedUnixMS: now, FinishedUnixMS: now, Events: 3,
			Result: &Result{Cut: cut, Seconds: 0.5}, Sides: sides},
		{ID: "j-000003-00000003", Algorithm: "ckl", State: StateQueued},
	}
	for _, rec := range recs {
		rec.Schema, rec.Graph, rec.Starts, rec.Seed, rec.SubmittedUnixMS = jobSchema, ref, 1, 4, now
		if err := st.saveJob(rec); err != nil {
			t.Fatal(err)
		}
	}

	srv2, err := New(Config{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		srv2.Close()
	})

	if v := waitTerminal(t, ts2, recs[0].ID); v.State != StateFailed || !strings.Contains(v.Error, `unknown bisector "fm"`) {
		t.Fatalf("queued fm job ended %q (%s), want failed naming the unknown bisector", v.State, v.Error)
	}
	res := resultOf(t, ts2, recs[1].ID)
	if res.Cut != cut || len(res.Sides) != len(sides) {
		t.Fatalf("done greedy job serves cut %d over %d sides, want %d over %d", res.Cut, len(res.Sides), cut, len(sides))
	}
	for v, s := range sides {
		if res.Sides[v] != int(s) {
			t.Fatalf("done greedy job's sides diverge from its record at vertex %d", v)
		}
	}
	frames := sseFrames(t, ts2, recs[1].ID, "")
	if len(frames) != 1 {
		t.Fatalf("done greedy job streams %d frames, want its terminal frame alone", len(frames))
	}
	wantTerminal(t, frames[0], StateDone, 3)
	if v := waitTerminal(t, ts2, recs[2].ID); v.State != StateDone {
		t.Fatalf("queued ckl job ended %q (%s)", v.State, v.Error)
	}
	if v := waitTerminal(t, ts2, submitJob(t, ts2, map[string]any{"graph": ref, "algorithm": "kl", "seed": 5})); v.State != StateDone {
		t.Fatalf("a job submitted after the restart ended %q (%s)", v.State, v.Error)
	}
}
