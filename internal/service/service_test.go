// End-to-end tests for the partitioning daemon. docs/SERVICE.md is the
// contract: every behavior asserted here is stated there, and the
// doc-contract tests (doc_contract_test.go) keep the document's endpoint
// list and error-code table equal to the implementation's.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/runctl"
	"repro/internal/trace"
)

// testGraph builds a deterministic Gnp instance.
func testGraph(t *testing.T, n int, deg float64, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.GNP(n, deg/float64(n-1), rng.NewFib(seed))
	if err != nil {
		t.Fatalf("gen.GNP: %v", err)
	}
	return g
}

// newTestServer starts a Server plus an httptest front end, both torn
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// doJSON performs a request with an optional JSON/raw body and decodes
// the JSON response, returning the raw *http.Response for header checks.
func doJSON(t *testing.T, method, url string, body []byte, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp
}

// errEnvelope is the documented JSON error body.
type errEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// wantErr asserts a response carries the documented envelope.
func wantErr(t *testing.T, method, url string, body []byte, status int, code string) *http.Response {
	t.Helper()
	var env errEnvelope
	resp := doJSON(t, method, url, body, &env)
	if resp.StatusCode != status || env.Error.Code != code {
		t.Fatalf("%s %s: got %d %q (%s), want %d %q",
			method, url, resp.StatusCode, env.Error.Code, env.Error.Message, status, code)
	}
	return resp
}

// uploadGraph posts g as an edge list and returns its content-hash ref.
func uploadGraph(t *testing.T, ts *httptest.Server, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	var info struct {
		Graph string `json:"graph"`
	}
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", buf.Bytes(), &info)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: HTTP %d", resp.StatusCode)
	}
	return info.Graph
}

// submitJob posts a job spec and returns the accepted job's id.
func submitJob(t *testing.T, ts *httptest.Server, spec map[string]any) string {
	t.Helper()
	body, _ := json.Marshal(spec)
	var v jobView
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &v)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: HTTP %d", body, resp.StatusCode)
	}
	if v.State != StateQueued {
		t.Fatalf("submit: accepted state %q, want %q", v.State, StateQueued)
	}
	return v.ID
}

// waitTerminal long-polls a job to a terminal state (bounded).
func waitTerminal(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var v jobView
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id+"?wait_ms=2000", nil, &v)
		if v.State.terminal() {
			return v
		}
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return jobView{}
}

// resultOf fetches /result for a done job.
type resultBody struct {
	ID        string  `json:"id"`
	Cut       int64   `json:"cut"`
	Imbalance int64   `json:"imbalance"`
	Stopped   string  `json:"stopped"`
	Seconds   float64 `json:"seconds"`
	Sides     []int   `json:"sides"`
}

func resultOf(t *testing.T, ts *httptest.Server, id string) resultBody {
	t.Helper()
	var res resultBody
	resp := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/result", nil, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result of %s: HTTP %d", id, resp.StatusCode)
	}
	return res
}

// collector records events with the timing fields zeroed, mirroring
// what the job log stores.
type collector struct{ evs []trace.Event }

func (c *collector) Observe(e trace.Event) {
	e.ElapsedNS = 0
	e.AllocBytes = 0
	c.evs = append(c.evs, e)
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 5})
	var h map[string]string
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil, &h); resp.StatusCode != 200 || h["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, h)
	}
	var stats struct {
		Queue   struct{ Depth, Capacity int } `json:"queue"`
		Workers int                           `json:"workers"`
		Jobs    map[string]int                `json:"jobs"`
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &stats); resp.StatusCode != 200 {
		t.Fatalf("stats: HTTP %d", resp.StatusCode)
	}
	if stats.Queue.Capacity != 5 || stats.Workers != 2 {
		t.Fatalf("stats: got queue cap %d workers %d, want 5 and 2", stats.Queue.Capacity, stats.Workers)
	}
}

// TestGraphUploadFormats: the three documented formats canonicalize to
// one content hash — the same graph uploaded as an edge list and as JSON
// is one cache entry, and the second upload reports 200/cached.
func TestGraphUploadFormats(t *testing.T) {
	g := testGraph(t, 60, 4, 3)
	_, ts := newTestServer(t, Config{})

	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	var first struct {
		Graph    string `json:"graph"`
		Vertices int    `json:"vertices"`
		Edges    int    `json:"edges"`
		Cached   bool   `json:"cached"`
	}
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", buf.Bytes(), &first)
	if resp.StatusCode != http.StatusCreated || first.Cached {
		t.Fatalf("first upload: HTTP %d cached=%v, want 201 cached=false", resp.StatusCode, first.Cached)
	}
	if first.Vertices != g.N() || first.Edges != g.M() {
		t.Fatalf("upload reported %d/%d, want %d/%d", first.Vertices, first.Edges, g.N(), g.M())
	}

	jsonBody, err := graph.MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	var second struct {
		Graph  string `json:"graph"`
		Cached bool   `json:"cached"`
	}
	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/graphs?format=json", jsonBody, &second)
	if resp.StatusCode != http.StatusOK || !second.Cached {
		t.Fatalf("re-upload as json: HTTP %d cached=%v, want 200 cached=true", resp.StatusCode, second.Cached)
	}
	if second.Graph != first.Graph {
		t.Fatalf("format-independent hashing broken: %s vs %s", first.Graph, second.Graph)
	}

	var metis bytes.Buffer
	if err := graph.WriteMETIS(&metis, g); err != nil {
		t.Fatal(err)
	}
	var third struct {
		Graph string `json:"graph"`
	}
	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/graphs?format=metis", metis.Bytes(), &third)
	if resp.StatusCode != http.StatusOK || third.Graph != first.Graph {
		t.Fatalf("metis re-upload: HTTP %d ref %s, want 200 %s", resp.StatusCode, third.Graph, first.Graph)
	}

	var info struct {
		Vertices int `json:"vertices"`
		Edges    int `json:"edges"`
	}
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/graphs/"+first.Graph, nil, &info)
	if resp.StatusCode != 200 || info.Vertices != g.N() || info.Edges != g.M() {
		t.Fatalf("graph info: HTTP %d %+v", resp.StatusCode, info)
	}
}

// TestLifecycleMatchesBestOf pins the reproducibility contract of
// docs/SERVICE.md "POST /v1/jobs": a job is equivalent to
// core.BestOf{Inner, Starts} on one rng stream — same cut, same sides,
// and a byte-identical event stream.
func TestLifecycleMatchesBestOf(t *testing.T) {
	g := testGraph(t, 300, 4, 11)
	_, ts := newTestServer(t, Config{})
	ref := uploadGraph(t, ts, g)
	id := submitJob(t, ts, map[string]any{"graph": ref, "algorithm": "kl", "starts": 3, "seed": 7})
	final := waitTerminal(t, ts, id)
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("job ended %q (%s), want done", final.State, final.Error)
	}
	if final.Result.Stopped != "" {
		t.Fatalf("untruncated run reported stopped=%q", final.Result.Stopped)
	}

	var col collector
	inner, err := core.New("kl")
	if err != nil {
		t.Fatal(err)
	}
	best, err := core.WithObserver(core.BestOf{Inner: inner, Starts: 3}, &col).Bisect(g, rng.NewFib(7))
	if err != nil {
		t.Fatal(err)
	}
	if final.Result.Cut != best.Cut() || final.Result.Imbalance != best.Imbalance() {
		t.Fatalf("service cut/imbalance %d/%d, BestOf %d/%d",
			final.Result.Cut, final.Result.Imbalance, best.Cut(), best.Imbalance())
	}
	res := resultOf(t, ts, id)
	sides := best.Sides()
	if len(res.Sides) != len(sides) {
		t.Fatalf("sides length %d, want %d", len(res.Sides), len(sides))
	}
	for i, s := range sides {
		if res.Sides[i] != int(s) {
			t.Fatalf("sides diverge at vertex %d: %d vs %d", i, res.Sides[i], s)
		}
	}

	frames := sseFrames(t, ts, id, "")
	if len(frames) != len(col.evs)+1 { // +1 terminal frame
		t.Fatalf("stream has %d frames, BestOf emitted %d events", len(frames), len(col.evs))
	}
	for i, e := range col.evs {
		want, _ := json.Marshal(e)
		if frames[i].data != string(want) {
			t.Fatalf("event %d diverges:\nservice %s\nBestOf  %s", i, frames[i].data, want)
		}
		if frames[i].id != fmt.Sprint(i) {
			t.Fatalf("event %d has SSE id %q", i, frames[i].id)
		}
	}
	if last := frames[len(frames)-1]; last.event != "done" {
		t.Fatalf("terminal frame named %q, want done", last.event)
	}
	if final.Events != len(col.evs) || final.EventsDropped != 0 {
		t.Fatalf("job reports %d events (%d dropped), want %d (0)",
			final.Events, final.EventsDropped, len(col.evs))
	}
}

// TestDeterministicResubmit: identical specs yield identical results —
// including under a deterministic budget truncation.
func TestDeterministicResubmit(t *testing.T) {
	g := testGraph(t, 250, 4, 5)
	_, ts := newTestServer(t, Config{})
	ref := uploadGraph(t, ts, g)
	spec := map[string]any{"graph": ref, "algorithm": "ckl", "starts": 4096, "seed": 9, "budget": 64}
	a := waitTerminal(t, ts, submitJob(t, ts, spec))
	b := waitTerminal(t, ts, submitJob(t, ts, spec))
	if a.State != StateDone || b.State != StateDone {
		t.Fatalf("states %q/%q (%s/%s), want done/done", a.State, b.State, a.Error, b.Error)
	}
	if a.Result.Stopped != "budget" || b.Result.Stopped != "budget" {
		t.Fatalf("stopped %q/%q, want budget/budget", a.Result.Stopped, b.Result.Stopped)
	}
	if a.Result.Cut != b.Result.Cut || a.Events != b.Events {
		t.Fatalf("budget truncation is not deterministic: cut %d/%d events %d/%d",
			a.Result.Cut, b.Result.Cut, a.Events, b.Events)
	}
}

// TestBudgetStopDuringRefinement: an mlkl job whose budget runs out at
// any checkpoint — while coarsening, in the coarsest solve, or while a
// level refines — is reported as stopped="budget"; only a budget the run
// finishes within reports nothing. The run's checkpoint count comes from
// the same run through core.
func TestBudgetStopDuringRefinement(t *testing.T) {
	g, err := gen.BReg(4000, 16, 3, rng.NewFib(5))
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.New("mlkl")
	if err != nil {
		t.Fatal(err)
	}
	full := 1
	for ; full < 1000; full++ {
		ctl := runctl.WithBudget(int64(full))
		if _, err := core.WithControl(base, ctl).Bisect(g, rng.NewFib(5)); err != nil && !runctl.IsStop(err) {
			t.Fatal(err)
		}
		if ctl.Err() == nil {
			break // the smallest budget the run finishes within
		}
	}
	_, ts := newTestServer(t, Config{})
	ref := uploadGraph(t, ts, g)
	for k := 1; k <= full; k++ {
		v := waitTerminal(t, ts, submitJob(t, ts, map[string]any{
			"graph": ref, "algorithm": "mlkl", "starts": 1, "seed": 5, "budget": k,
		}))
		want := "budget"
		if k == full {
			want = ""
		}
		if v.State != StateDone || v.Result == nil {
			t.Fatalf("budget %d: job ended %q (%s), want done", k, v.State, v.Error)
		}
		if v.Result.Stopped != want {
			t.Fatalf("budget %d of %d: stopped %q, want %q", k, full, v.Result.Stopped, want)
		}
	}
}

// TestDeadlineBestSoFar: an expired deadline still returns a valid
// best-so-far result, flagged stopped="deadline".
func TestDeadlineBestSoFar(t *testing.T) {
	g := testGraph(t, 400, 4, 13)
	_, ts := newTestServer(t, Config{})
	ref := uploadGraph(t, ts, g)
	id := submitJob(t, ts, map[string]any{
		"graph": ref, "algorithm": "kl", "starts": 4096, "seed": 3, "timeout_ms": 80,
	})
	final := waitTerminal(t, ts, id)
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("deadline job ended %q (%s), want done with a result", final.State, final.Error)
	}
	if final.Result.Stopped != "deadline" {
		t.Fatalf("stopped=%q, want deadline", final.Result.Stopped)
	}
	res := resultOf(t, ts, id)
	if res.Cut <= 0 || len(res.Sides) != g.N() {
		t.Fatalf("best-so-far result malformed: cut %d, %d sides", res.Cut, len(res.Sides))
	}
}

// TestQueueFullAndCancel drives the documented backpressure and both
// cancellation paths on a 1-worker, 1-slot daemon.
func TestQueueFullAndCancel(t *testing.T) {
	g := testGraph(t, 400, 4, 17)
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	ref := uploadGraph(t, ts, g)
	long := map[string]any{"graph": ref, "algorithm": "kl", "starts": 4096, "seed": 1}

	// A occupies the single worker.
	idA := submitJob(t, ts, long)
	for i := 0; ; i++ {
		var v jobView
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+idA, nil, &v)
		if v.State == StateRunning {
			break
		}
		if i > 2000 {
			t.Fatalf("job A never started (state %q)", v.State)
		}
		time.Sleep(time.Millisecond)
	}
	// B fills the one queue slot; C must be refused with the documented
	// 429 + Retry-After envelope.
	idB := submitJob(t, ts, long)
	body, _ := json.Marshal(long)
	resp := wantErr(t, http.MethodPost, ts.URL+"/v1/jobs", body, http.StatusTooManyRequests, codeQueueFull)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Cancel B while queued: terminal "cancelled", it never ran, and its
	// event stream is just the terminal frame.
	var vB jobView
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+idB, nil, &vB)
	if vB.State != StateCancelled {
		t.Fatalf("queued cancel: state %q, want cancelled", vB.State)
	}
	wantErr(t, http.MethodGet, ts.URL+"/v1/jobs/"+idB+"/result", nil, http.StatusConflict, codeConflict)
	if frames := sseFrames(t, ts, idB, ""); len(frames) != 1 || frames[0].event != "cancelled" {
		t.Fatalf("cancelled job streamed %d frames (%q)", len(frames), frames[0].event)
	}
	// Idempotent re-cancel.
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+idB, nil, &vB)
	if vB.State != StateCancelled {
		t.Fatalf("re-cancel: state %q", vB.State)
	}

	// Cancel A while running: it stops at the next checkpoint with its
	// best-so-far (done, stopped="cancelled") — or failed if it had not
	// yet produced a candidate.
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+idA, nil, nil)
	final := waitTerminal(t, ts, idA)
	switch final.State {
	case StateDone:
		if final.Result.Stopped != "cancelled" {
			t.Fatalf("running cancel: stopped=%q, want cancelled", final.Result.Stopped)
		}
	case StateFailed:
		// Legitimate only when cancellation landed before any candidate.
	default:
		t.Fatalf("running cancel ended %q", final.State)
	}
}

// TestErrorContract walks the documented error table (docs/SERVICE.md
// "Error codes") end to end.
func TestErrorContract(t *testing.T) {
	g := testGraph(t, 80, 4, 2)
	_, ts := newTestServer(t, Config{MaxGraphBytes: 256})
	ref := uploadGraph(t, ts, testGraph(t, 10, 2, 1)) // small enough for the cap

	unknownHash := "sha256:" + strings.Repeat("ab", 32)
	cases := []struct {
		name, method, path string
		body               []byte
		status             int
		code               string
	}{
		{"unknown route", "GET", "/nope", nil, 404, codeNotFound},
		{"unknown job", "GET", "/v1/jobs/j-999999-zz", nil, 404, codeNotFound},
		{"unknown graph", "GET", "/v1/graphs/" + unknownHash, nil, 404, codeNotFound},
		{"bad graph ref", "GET", "/v1/graphs/xyzzy", nil, 400, codeBadRequest},
		{"bad format", "POST", "/v1/graphs?format=yaml", []byte("0 1\n"), 400, codeBadRequest},
		{"unparsable graph", "POST", "/v1/graphs", []byte("not an edge list"), 400, codeBadRequest},
		{"graph over the size cap", "POST", "/v1/graphs", []byte("graph 4 2000000000\n"), 413, codeTooLarge},
		{"bad spec json", "POST", "/v1/jobs", []byte("{"), 400, codeBadRequest},
		{"unknown spec field", "POST", "/v1/jobs",
			[]byte(`{"graph":"` + ref + `","algorithm":"kl","bogus":1}`), 400, codeBadRequest},
		{"unknown algorithm", "POST", "/v1/jobs",
			[]byte(`{"graph":"` + ref + `","algorithm":"quantum"}`), 400, codeBadRequest},
		{"negative timeout", "POST", "/v1/jobs",
			[]byte(`{"graph":"` + ref + `","algorithm":"kl","timeout_ms":-1}`), 400, codeBadRequest},
		{"job for unknown graph", "POST", "/v1/jobs",
			[]byte(`{"graph":"` + unknownHash + `","algorithm":"kl"}`), 404, codeNotFound},
		{"bad wait_ms", "GET", "/v1/jobs/j-999999-zz?wait_ms=soon", nil, 404, codeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantErr(t, tc.method, ts.URL+tc.path, tc.body, tc.status, tc.code)
		})
	}

	// 405 carries the JSON envelope plus an Allow header.
	resp := wantErr(t, http.MethodPut, ts.URL+"/v1/healthz", nil, 405, codeMethodNotAllowed)
	if allow := resp.Header.Get("Allow"); allow != "GET" {
		t.Fatalf("Allow header %q, want GET", allow)
	}

	// 413 on an upload beyond -max-graph-bytes.
	var big bytes.Buffer
	if err := graph.WriteEdgeList(&big, g); err != nil {
		t.Fatal(err)
	}
	if big.Len() <= 256 {
		t.Fatalf("test graph only %d bytes", big.Len())
	}
	wantErr(t, http.MethodPost, ts.URL+"/v1/graphs", big.Bytes(), 413, codeTooLarge)

	// The 413 body carries the configured cap so large-graph clients can
	// self-diagnose against this deployment's -max-graph-bytes.
	var limited struct {
		Error struct {
			LimitBytes int64 `json:"limit_bytes"`
		} `json:"error"`
	}
	doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", big.Bytes(), &limited)
	if limited.Error.LimitBytes != 256 {
		t.Fatalf("413 limit_bytes = %d, want 256", limited.Error.LimitBytes)
	}

	// 400 on a bad wait_ms for a job that exists.
	id := submitJob(t, ts, map[string]any{"graph": ref, "algorithm": "kl"})
	wantErr(t, http.MethodGet, ts.URL+"/v1/jobs/"+id+"?wait_ms=-2", nil, 400, codeBadRequest)
	wantErr(t, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events?from=-1", nil, 400, codeBadRequest)
	waitTerminal(t, ts, id)
}

// TestLongPollAndList: wait_ms holds the request until the job is
// terminal; the job list is in submission order.
func TestLongPollAndList(t *testing.T) {
	g := testGraph(t, 120, 4, 23)
	_, ts := newTestServer(t, Config{})
	ref := uploadGraph(t, ts, g)
	id1 := submitJob(t, ts, map[string]any{"graph": ref, "algorithm": "kl", "seed": 1})
	var v jobView
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id1+"?wait_ms=30000", nil, &v)
	if !v.State.terminal() {
		t.Fatalf("long poll returned non-terminal state %q", v.State)
	}
	id2 := submitJob(t, ts, map[string]any{"graph": ref, "algorithm": "ckl", "seed": 2})
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil, &list)
	if len(list.Jobs) != 2 || list.Jobs[0].ID != id1 || list.Jobs[1].ID != id2 {
		t.Fatalf("job list %v, want [%s %s]", list.Jobs, id1, id2)
	}
	waitTerminal(t, ts, id2)
}
