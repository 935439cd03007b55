package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/fsx"
)

// readyz fetches /v1/readyz and returns the decoded body.
func readyz(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	var body map[string]any
	resp := doJSON(t, http.MethodGet, ts.URL+"/v1/readyz", nil, &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: HTTP %d", resp.StatusCode)
	}
	return body
}

func persistenceState(t *testing.T, body map[string]any) string {
	t.Helper()
	p, ok := body["persistence"].(map[string]any)
	if !ok {
		t.Fatalf("readyz body has no persistence object: %v", body)
	}
	state, _ := p["state"].(string)
	return state
}

// Without a state directory, persistence reports disabled.
func TestReadyzDisabledPersistence(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if got := persistenceState(t, readyz(t, ts)); got != "disabled" {
		t.Fatalf("persistence state = %q, want disabled", got)
	}
}

// A write failure must not fail a submission whose compute is queued:
// the ack is 202 with persistence "degraded", readyz flips to degraded,
// the job still completes and serves its result from memory, and once
// the filesystem heals (probe re-arm) the record is flushed to disk so
// a restart can still see it.
func TestDegradedModeServing(t *testing.T) {
	dir := t.TempDir()
	// Every write faults when armed; SetDisabled is the health toggle.
	ffs := faultfs.New(fsx.OS, faultfs.Plan{Seed: 3, PWrite: 1})
	ffs.SetDisabled(true) // healthy to start
	_, ts := newTestServer(t, Config{
		StateDir: dir, Workers: 1, FS: ffs, PersistProbe: 20 * time.Millisecond,
	})
	g := testGraph(t, 200, 4, 9)
	ref := uploadGraph(t, ts, g)
	if got := persistenceState(t, readyz(t, ts)); got != "ok" {
		t.Fatalf("healthy daemon reports %q", got)
	}

	// Break the filesystem completely, then submit.
	ffs.SetDisabled(false)
	body, _ := json.Marshal(map[string]any{"graph": ref, "algorithm": "kl", "starts": 2, "seed": 5})
	var v jobView
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &v)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit under write failure: HTTP %d, want 202", resp.StatusCode)
	}
	if v.Persistence != "degraded" {
		t.Fatalf("accepted view persistence = %q, want degraded", v.Persistence)
	}
	if got := persistenceState(t, readyz(t, ts)); got != "degraded" {
		t.Fatalf("readyz after failure reports %q, want degraded", got)
	}

	// Compute is unaffected: the job completes and serves a result.
	final := waitTerminal(t, ts, v.ID)
	if final.State != StateDone {
		t.Fatalf("job under degraded persistence ended %q (%s)", final.State, final.Error)
	}
	res := resultOf(t, ts, v.ID)
	if res.Cut <= 0 || len(res.Sides) != g.N() {
		t.Fatalf("degraded-mode result implausible: cut=%d sides=%d", res.Cut, len(res.Sides))
	}
	// The record never reached disk.
	if _, err := os.Stat(filepath.Join(dir, "jobs", v.ID+".json")); !os.IsNotExist(err) {
		t.Fatalf("record on disk despite total write failure: %v", err)
	}

	// Heal the filesystem; the probe must re-arm and flush the record.
	ffs.SetDisabled(true)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if persistenceState(t, readyz(t, ts)) == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probe never re-armed persistence")
		}
		time.Sleep(10 * time.Millisecond)
	}
	data, err := os.ReadFile(filepath.Join(dir, "jobs", v.ID+".json"))
	if err != nil {
		t.Fatalf("record not flushed after re-arm: %v", err)
	}
	payload, err := fsx.SplitCRC("rec", data)
	if err != nil {
		t.Fatalf("flushed record fails CRC: %v", err)
	}
	var rec jobView
	if err := json.Unmarshal(payload, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != StateDone || rec.Result == nil || rec.Result.Cut != res.Cut {
		t.Fatalf("flushed record %+v does not match served result", rec)
	}
	// The flushed job sheds its degraded flag.
	var after jobView
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+v.ID, nil, &after)
	if after.Persistence != "" {
		t.Fatalf("job still flagged %q after flush", after.Persistence)
	}
}

// A corrupted job record on disk must quarantine on restart: recovery
// proceeds without it, readyz reports the quarantined count, and the
// other records still load.
func TestCorruptRecordQuarantineOnRestart(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 200, 4, 11)

	srv1, err := New(Config{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	ref := uploadGraph(t, ts1, g)
	idA := submitJob(t, ts1, map[string]any{"graph": ref, "algorithm": "kl", "starts": 2, "seed": 5})
	idB := submitJob(t, ts1, map[string]any{"graph": ref, "algorithm": "kl", "starts": 2, "seed": 6})
	for _, id := range []string{idA, idB} {
		if v := waitTerminal(t, ts1, id); v.State != StateDone {
			t.Fatalf("job %s ended %q", id, v.State)
		}
	}
	ts1.Close()
	srv1.Close()

	// Corrupt job A's record: flip one payload byte, leave B intact.
	pathA := filepath.Join(dir, "jobs", idA+".json")
	data, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(pathA, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Config{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatalf("restart over corrupt record failed: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		srv2.Close()
	})

	// A is gone from the daemon (quarantined), B survived intact.
	wantErr(t, http.MethodGet, ts2.URL+"/v1/jobs/"+idA, nil, http.StatusNotFound, codeNotFound)
	var vB jobView
	doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+idB, nil, &vB)
	if vB.State != StateDone {
		t.Fatalf("intact record recovered as %q", vB.State)
	}
	// The damaged bytes are preserved as evidence.
	qpath := filepath.Join(dir, "quarantine", idA+".json")
	qdata, err := os.ReadFile(qpath)
	if err != nil {
		t.Fatalf("quarantined record missing: %v", err)
	}
	if string(qdata) != string(data) {
		t.Fatal("quarantined bytes differ from the corrupted record")
	}
	if _, err := os.Stat(pathA); !os.IsNotExist(err) {
		t.Fatal("corrupt record still in jobs/ after quarantine")
	}
	body := readyz(t, ts2)
	p := body["persistence"].(map[string]any)
	if q, _ := p["quarantined"].(float64); q != 1 {
		t.Fatalf("readyz quarantined = %v, want 1", p["quarantined"])
	}
}

// A corrupted graph file fails dependent recovered jobs with a typed
// "graph lost" error instead of crashing recovery, and a re-upload of
// the same graph (same hash) restores service.
func TestCorruptGraphQuarantineOnRestart(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 200, 4, 13)

	srv1, err := New(Config{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	ref := uploadGraph(t, ts1, g)
	// Leave a queued job behind by filling the single worker then closing.
	idLong := submitJob(t, ts1, map[string]any{"graph": ref, "algorithm": "kl", "starts": 4096, "seed": 8})
	ts1.Close()
	srv1.Close()

	// Corrupt the persisted graph bytes.
	hash := strings.TrimPrefix(ref, "sha256:")
	gpath := filepath.Join(dir, "graphs", hash+".el")
	data, err := os.ReadFile(gpath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(gpath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Config{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatalf("restart over corrupt graph failed: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		srv2.Close()
	})

	var v jobView
	doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+idLong, nil, &v)
	if v.State != StateFailed || !strings.Contains(v.Error, "lost") {
		t.Fatalf("job over corrupt graph: state %q error %q, want failed/lost", v.State, v.Error)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", hash+".el")); err != nil {
		t.Fatalf("corrupt graph not quarantined: %v", err)
	}

	// Re-upload restores the graph under the same hash; new jobs work.
	ref2 := uploadGraph(t, ts2, g)
	if ref2 != ref {
		t.Fatalf("re-upload hash changed: %s vs %s", ref2, ref)
	}
	id := submitJob(t, ts2, map[string]any{"graph": ref, "algorithm": "kl", "starts": 2, "seed": 5})
	if v := waitTerminal(t, ts2, id); v.State != StateDone {
		t.Fatalf("post-restore job ended %q (%s)", v.State, v.Error)
	}
}

// A released job's /result reads its record; a record that fails
// verification, or verifies but is not the done job's, answers 500
// internal and is never served, but the request leaves the file in
// jobs/ (a read fault may be transient). The next restart quarantines a
// corrupt one.
func TestCorruptRecordResult(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Config{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	ref := uploadGraph(t, ts1, testGraph(t, 200, 4, 11))
	id := submitJob(t, ts1, map[string]any{"graph": ref, "algorithm": "kl", "starts": 2, "seed": 5})
	waitReleased(t, srv1, id)

	path := filepath.Join(dir, "jobs", id+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := jobView{Schema: jobSchema, ID: id, State: StateQueued}
	if err := srv1.store.saveJob(stale); err != nil {
		t.Fatal(err)
	}
	wantErr(t, http.MethodGet, ts1.URL+"/v1/jobs/"+id+"/result", nil, http.StatusInternalServerError, codeInternal)

	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	wantErr(t, http.MethodGet, ts1.URL+"/v1/jobs/"+id+"/result", nil, http.StatusInternalServerError, codeInternal)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("a failed /result read moved the record out of jobs/: %v", err)
	}
	ts1.Close()
	srv1.Close()

	srv2, err := New(Config{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatalf("restart over the corrupt record: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		srv2.Close()
	})
	qdata, err := os.ReadFile(filepath.Join(dir, "quarantine", id+".json"))
	if err != nil || !bytes.Equal(qdata, data) {
		t.Fatalf("restart did not quarantine the corrupt record intact: %v", err)
	}
	wantErr(t, http.MethodGet, ts2.URL+"/v1/jobs/"+id, nil, http.StatusNotFound, codeNotFound)
}
