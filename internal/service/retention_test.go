package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/fsx"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Tests of docs/SERVICE.md "Memory and retention": once a terminal job's
// record is durable, the daemon keeps only its index and serves the job
// from the record.

// bestOfRun is core.BestOf{alg, starts} on seed with its event stream,
// the reference every job of the same spec must match.
func bestOfRun(t *testing.T, g *graph.Graph, alg string, starts int, seed uint64) (*partition.Bisection, []trace.Event) {
	t.Helper()
	inner, err := core.New(alg)
	if err != nil {
		t.Fatal(err)
	}
	var col collector
	best, err := core.WithObserver(core.BestOf{Inner: inner, Starts: starts}, &col).Bisect(g, rng.NewFib(seed))
	if err != nil {
		t.Fatal(err)
	}
	return best, col.evs
}

// jobOf looks a job up inside the server.
func jobOf(t *testing.T, srv *Server, id string) *job {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	j, ok := srv.jobs[id]
	if !ok {
		t.Fatalf("no job %s in the server", id)
	}
	return j
}

// waitFor polls cond until it holds, failing the test after 30 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// waitReleased waits until job id's terminal record is durable.
func waitReleased(t *testing.T, srv *Server, id string) *job {
	t.Helper()
	j := jobOf(t, srv, id)
	waitFor(t, "job "+id+" to be released", j.isReleased)
	return j
}

// held reports what the job still holds in memory.
func held(j *job) (g *graph.Graph, sides []uint8, events []trace.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.g, j.sides, j.events
}

// getRaw fetches url and returns the status and the body bytes.
func getRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, body
}

// wantSides compares a /result body's sides with a reference bisection.
func wantSides(t *testing.T, res resultBody, best *partition.Bisection) {
	t.Helper()
	if res.Cut != best.Cut() || res.Imbalance != best.Imbalance() {
		t.Fatalf("result cut/imbalance %d/%d, BestOf %d/%d", res.Cut, res.Imbalance, best.Cut(), best.Imbalance())
	}
	sides := best.Sides()
	if len(res.Sides) != len(sides) {
		t.Fatalf("result has %d sides, want %d", len(res.Sides), len(sides))
	}
	for v, s := range sides {
		if res.Sides[v] != int(s) {
			t.Fatalf("sides diverge at vertex %d: %d vs %d", v, res.Sides[v], s)
		}
	}
}

// wantStream compares SSE frames with a reference event stream followed
// by one terminal frame named state, carrying the recorded count.
func wantStream(t *testing.T, frames []sseFrame, evs []trace.Event, state State) {
	t.Helper()
	if len(frames) != len(evs)+1 {
		t.Fatalf("stream has %d frames, want %d events + terminal", len(frames), len(evs))
	}
	for i, e := range evs {
		want, _ := json.Marshal(e)
		if frames[i].data != string(want) || frames[i].id != fmt.Sprint(i) {
			t.Fatalf("frame %d {id %q, %s}, want {id %d, %s}", i, frames[i].id, frames[i].data, i, want)
		}
	}
	wantTerminal(t, frames[len(frames)-1], state, len(evs))
}

// wantTerminal checks a terminal frame's name and recorded event count.
func wantTerminal(t *testing.T, f sseFrame, state State, events int) {
	t.Helper()
	var term struct {
		Events int `json:"events"`
	}
	if err := json.Unmarshal([]byte(f.data), &term); err != nil {
		t.Fatalf("terminal frame %q: %v", f.data, err)
	}
	if f.event != string(state) || f.id != "" || term.Events != events {
		t.Fatalf("terminal frame {id %q, event %q, events %d}, want {\"\", %q, %d}",
			f.id, f.event, term.Events, state, events)
	}
}

// TestRetentionServesFromRecord: a released job holds no graph, sides or
// events; its view still carries the recorded counts, /result (read from
// the record) equals BestOf's, and a late subscriber gets the terminal
// frame alone.
func TestRetentionServesFromRecord(t *testing.T) {
	g := testGraph(t, 300, 4, 11)
	best, evs := bestOfRun(t, g, "ckl", 3, 7)
	srv, ts := newTestServer(t, Config{StateDir: t.TempDir()})
	ref := uploadGraph(t, ts, g)
	id := submitJob(t, ts, map[string]any{"graph": ref, "algorithm": "ckl", "starts": 3, "seed": 7})

	j := waitReleased(t, srv, id)
	if hg, hs, he := held(j); hg != nil || hs != nil || he != nil {
		t.Fatalf("released job holds graph %v, %d sides, %d events", hg != nil, len(hs), len(he))
	}
	var v jobView
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil, &v)
	if v.State != StateDone || v.Result == nil || v.Result.Cut != best.Cut() ||
		v.Events != len(evs) || v.EventsDropped != 0 || v.Persistence != "" {
		t.Fatalf("released job view %+v, want done with cut %d and %d events", v, best.Cut(), len(evs))
	}
	wantSides(t, resultOf(t, ts, id), best)

	for _, query := range []string{"", "?from=2"} {
		frames := sseFrames(t, ts, id, query)
		if len(frames) != 1 {
			t.Fatalf("late subscriber%s got %d frames, want the terminal frame alone", query, len(frames))
		}
		wantTerminal(t, frames[0], StateDone, len(evs))
	}
}

// stallWriter is an SSE client that reads the first frame, then stalls
// every later write until resume is closed.
type stallWriter struct {
	hdr    http.Header
	mu     sync.Mutex
	buf    bytes.Buffer
	writes int
	first  chan struct{} // closed after the first frame
	resume chan struct{}
}

func newStallWriter() *stallWriter {
	return &stallWriter{hdr: http.Header{}, first: make(chan struct{}), resume: make(chan struct{})}
}

func (w *stallWriter) Header() http.Header { return w.hdr }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Flush()              {}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes++
	n := w.writes
	w.mu.Unlock()
	if n == 1 {
		close(w.first)
	} else {
		<-w.resume
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// TestRetentionStalledSubscriber: a subscriber attached before the job
// finishes keeps the event log alive past the release, so a stream
// stalled across the terminal record's write still receives every event
// BestOf emits, then the terminal frame; the log goes when it detaches,
// and no later subscriber replays it meanwhile.
func TestRetentionStalledSubscriber(t *testing.T) {
	g := testGraph(t, 300, 4, 11)
	_, evs := bestOfRun(t, g, "mlkl", 2, 7)
	srv, ts := newTestServer(t, Config{StateDir: t.TempDir(), Workers: 1, Heartbeat: time.Hour})
	ref := uploadGraph(t, ts, g)
	// A long job holds the single worker until the subscriber is attached.
	blocker := submitJob(t, ts, map[string]any{"graph": ref, "algorithm": "kl", "starts": 4096, "seed": 1})
	id := submitJob(t, ts, map[string]any{"graph": ref, "algorithm": "mlkl", "starts": 2, "seed": 7})
	j := jobOf(t, srv, id)

	w := newStallWriter()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/events", nil))
	}()
	waitFor(t, "the subscriber to attach", func() bool {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.subscribers == 1
	})
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+blocker, nil, nil)

	<-w.first
	waitReleased(t, srv, id)
	if hg, hs, he := held(j); hg != nil || hs != nil || len(he) != len(evs) {
		t.Fatalf("released job with a stalled subscriber holds graph %v, %d sides, %d of %d events",
			hg != nil, len(hs), len(he), len(evs))
	}
	// The retained events are the stalled stream's alone: a subscriber
	// arriving now gets what any late one gets.
	if frames := sseFrames(t, ts, id, ""); len(frames) != 1 {
		t.Fatalf("late subscriber got %d frames while another held the stream", len(frames))
	}
	close(w.resume)
	<-served
	if _, _, he := held(j); he != nil {
		t.Fatalf("the last subscriber left and the job still holds %d events", len(he))
	}
	wantStream(t, parseSSE(t, w.buf.String()), evs, StateDone)
}

// TestRetentionDegraded: a done job whose terminal record failed to
// reach disk serves /result and the full stream from memory; the re-arm
// flush lands its record and releases it, and /result is unchanged.
func TestRetentionDegraded(t *testing.T) {
	g := testGraph(t, 300, 4, 11)
	best, evs := bestOfRun(t, g, "kl", 2, 5)
	ffs := faultfs.New(fsx.OS, faultfs.Plan{Seed: 3, PWrite: 1})
	ffs.SetDisabled(true)
	srv, ts := newTestServer(t, Config{
		StateDir: t.TempDir(), Workers: 1, FS: ffs, PersistProbe: 20 * time.Millisecond,
	})
	ref := uploadGraph(t, ts, g)

	ffs.SetDisabled(false) // every write fails from here
	id := submitJob(t, ts, map[string]any{"graph": ref, "algorithm": "kl", "starts": 2, "seed": 5})
	if v := waitTerminal(t, ts, id); v.State != StateDone || v.Persistence != "degraded" {
		t.Fatalf("job ended %q persistence %q, want done and degraded", v.State, v.Persistence)
	}
	j := jobOf(t, srv, id)
	if hg, hs, he := held(j); j.isReleased() || hg != nil || len(hs) != g.N() || len(he) != len(evs) {
		t.Fatalf("unpersisted done job: released %v, graph %v, %d sides, %d events",
			j.isReleased(), hg != nil, len(hs), len(he))
	}
	status, inMemory := getRaw(t, ts.URL+"/v1/jobs/"+id+"/result")
	if status != http.StatusOK {
		t.Fatalf("result from memory: HTTP %d", status)
	}
	var res resultBody
	if err := json.Unmarshal(inMemory, &res); err != nil {
		t.Fatal(err)
	}
	wantSides(t, res, best)
	wantStream(t, sseFrames(t, ts, id, ""), evs, StateDone)

	ffs.SetDisabled(true)
	waitReleased(t, srv, id)
	status, fromRecord := getRaw(t, ts.URL+"/v1/jobs/"+id+"/result")
	if status != http.StatusOK || !bytes.Equal(fromRecord, inMemory) {
		t.Fatalf("result after the flush: HTTP %d\n%s\nwant\n%s", status, fromRecord, inMemory)
	}
	frames := sseFrames(t, ts, id, "")
	if len(frames) != 1 {
		t.Fatalf("released job streamed %d frames, want the terminal frame alone", len(frames))
	}
	wantTerminal(t, frames[0], StateDone, len(evs))
}

// TestRetentionHeapPerJob bounds what a finished job costs the daemon:
// after the jobs' records are durable, the live heap grows by at most
// 4 KB per job. Each job's event log alone is over 20 KB.
func TestRetentionHeapPerJob(t *testing.T) {
	const (
		jobs     = 200
		batch    = 32 // below the default queue depth
		maxBytes = 4 << 10
	)
	g := testGraph(t, 300, 4, 11)
	if _, evs := bestOfRun(t, g, "mlkl", 2, 1000); len(evs)*int(unsafe.Sizeof(trace.Event{})) < 20<<10 {
		t.Fatalf("a job records %d events, under 20 KB", len(evs))
	}
	srv, ts := newTestServer(t, Config{StateDir: t.TempDir(), Workers: 2})
	ref := uploadGraph(t, ts, g)
	run := func(first, n int) {
		ids := make([]string, 0, batch)
		for i := first; i < first+n; i++ {
			ids = append(ids, submitJob(t, ts, map[string]any{
				"graph": ref, "algorithm": "mlkl", "starts": 2, "seed": 1000 + i,
			}))
			if len(ids) == batch || i == first+n-1 {
				for _, id := range ids {
					waitReleased(t, srv, id)
				}
				ids = ids[:0]
			}
		}
	}
	run(0, 4) // warm the workers' workspaces, the connections and the store
	before := liveHeap()
	run(4, jobs)
	perJob := (int64(liveHeap()) - int64(before)) / jobs
	t.Logf("live heap per terminal job: %d B", perJob)
	if perJob > maxBytes {
		t.Fatalf("live heap grew %d B per terminal job, want at most %d", perJob, maxBytes)
	}
}

// liveHeap is the heap in use after full collections; the second one
// also frees what the first left in sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// slowQueuedFS delays the rename that commits a job's queued record,
// which it recognises by the bytes written to the record's temp file.
type slowQueuedFS struct {
	fsx.FS
	mu      sync.Mutex
	written map[string][]byte // temp file path → bytes written
}

type recordingFile struct {
	fsx.File
	fs *slowQueuedFS
}

func (f *slowQueuedFS) CreateTemp(dir, pattern string) (fsx.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &recordingFile{File: file, fs: f}, nil
}

func (r *recordingFile) Write(p []byte) (int, error) {
	r.fs.mu.Lock()
	r.fs.written[r.Name()] = append(r.fs.written[r.Name()], p...)
	r.fs.mu.Unlock()
	return r.File.Write(p)
}

func (f *slowQueuedFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	data := f.written[oldpath]
	delete(f.written, oldpath)
	f.mu.Unlock()
	if bytes.Contains(data, []byte(`"state":"queued"`)) {
		time.Sleep(200 * time.Millisecond)
	}
	return f.FS.Rename(oldpath, newpath)
}

// TestRecordWritesOrdered: a job's record writes land in state order,
// so the record of a finished job is its terminal one even when the
// queued record's commit is slower than the whole run.
func TestRecordWritesOrdered(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{
		StateDir: dir, Workers: 1, FS: &slowQueuedFS{FS: fsx.OS, written: map[string][]byte{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	ref := uploadGraph(t, ts, testGraph(t, 60, 4, 3))
	id := submitJob(t, ts, map[string]any{"graph": ref, "algorithm": "kl", "starts": 1, "seed": 2})
	if v := waitTerminal(t, ts, id); v.State != StateDone {
		t.Fatalf("job ended %q (%s)", v.State, v.Error)
	}
	ts.Close()
	srv.Close() // joins the worker: every write of the job has returned

	path := filepath.Join(dir, "jobs", id+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := fsx.SplitCRC(path, data)
	if err != nil {
		t.Fatal(err)
	}
	var rec jobView
	if err := json.Unmarshal(payload, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != StateDone {
		t.Fatalf("the record of a done job says %q", rec.State)
	}
}

// commitLogFS logs the bytes of every file committed by rename, by final
// path, in commit order.
type commitLogFS struct {
	fsx.FS
	mu      sync.Mutex
	commits map[string][][]byte
}

func (f *commitLogFS) Rename(oldpath, newpath string) error {
	data, err := f.FS.ReadFile(oldpath)
	if err != nil {
		return err
	}
	if err := f.FS.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	f.commits[newpath] = append(f.commits[newpath], data)
	f.mu.Unlock()
	return nil
}

// TestRecordWrittenTwice: a finished job's record is written twice, at
// accept and at completion, and the last write is terminal. A blocker
// holds the single worker until every accept write has landed, so no
// accept snapshot can see the job finished (a finished snapshot would
// make the completion write redundant).
func TestRecordWrittenTwice(t *testing.T) {
	dir := t.TempDir()
	fs := &commitLogFS{FS: fsx.OS, commits: map[string][][]byte{}}
	srv, err := New(Config{StateDir: dir, Workers: 1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	ref := uploadGraph(t, ts, testGraph(t, 400, 4, 17))
	blocker := submitJob(t, ts, map[string]any{"graph": ref, "algorithm": "kl", "starts": 4096, "seed": 1})
	var ids []string
	for seed := 2; seed <= 7; seed++ {
		ids = append(ids, submitJob(t, ts, map[string]any{"graph": ref, "algorithm": "kl", "starts": 1, "seed": seed}))
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+blocker, nil, nil)
	for _, id := range ids {
		if v := waitTerminal(t, ts, id); v.State != StateDone {
			t.Fatalf("job %s ended %q (%s)", id, v.State, v.Error)
		}
	}
	ts.Close()
	srv.Close() // joins the worker: every write of every job has returned

	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, id := range ids {
		path := filepath.Join(dir, "jobs", id+".json")
		writes := fs.commits[path]
		if len(writes) != 2 {
			t.Fatalf("job %s: record written %d times, want 2", id, len(writes))
		}
		payload, err := fsx.SplitCRC(path, writes[1])
		if err != nil {
			t.Fatal(err)
		}
		var rec jobView
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.State != StateDone {
			t.Fatalf("job %s: last record write says %q, want done", id, rec.State)
		}
	}
}
