// Package service composes the repository's single-run machinery into a
// long-running multi-tenant partitioning daemon: graph upload with a
// content-hash cache, a bounded job queue with backpressure, a fixed
// worker pool reusing the zero-alloc per-worker workspaces, per-job
// run-control deadlines and budgets, convergence streaming over SSE, and
// crash-safe job persistence through internal/fsx.
//
// The HTTP API is specified in docs/SERVICE.md — that document is the
// contract, and the tests in this package assert the implementation
// matches it (including the endpoint list and error-code table, which
// are parsed out of the document and compared against Endpoints and
// ErrorCodes).
package service

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fsx"
	"repro/internal/graph"
)

// Defaults for the zero Config fields; the flag defaults of cmd/bisectd
// mirror these (and docs/SERVICE.md documents them).
const (
	defaultQueueDepth    = 64
	defaultCacheEntries  = 128
	defaultMaxGraphBytes = 64 << 20
	defaultMaxStarts     = 4096
	defaultMaxEvents     = 65536
	defaultHeartbeat     = 15 * time.Second
	defaultPersistProbe  = 2 * time.Second
)

// Config parameterizes a Server. The zero value gets sensible defaults.
type Config struct {
	// StateDir enables crash-safe persistence ("" = in-memory only).
	StateDir string
	// Workers is the fixed worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the job queue; submissions beyond it get 429.
	QueueDepth int
	// CacheEntries bounds the in-memory graph cache (LRU).
	CacheEntries int
	// MaxGraphBytes caps uploads (413 beyond it).
	MaxGraphBytes int64
	// MaxStarts caps a job's starts (requests beyond it are clamped).
	MaxStarts int
	// MaxEvents caps a job's stored trace stream (overflow counted in
	// events_dropped).
	MaxEvents int
	// Heartbeat is the SSE keep-alive comment interval.
	Heartbeat time.Duration
	// PersistProbe is the interval at which degraded persistence re-probes
	// the state directory (a small atomic write to <state>/.probe); a
	// successful probe flushes unpersisted records and then re-arms
	// persistence. Default 2s. Ignored without a StateDir.
	PersistProbe time.Duration
	// FS is the filesystem the store and probe write through (nil =
	// fsx.OS). Fault-injection tests substitute internal/faultfs here.
	FS fsx.FS
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = defaultQueueDepth
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = defaultCacheEntries
	}
	if c.MaxGraphBytes <= 0 {
		c.MaxGraphBytes = defaultMaxGraphBytes
	}
	if c.MaxStarts <= 0 {
		c.MaxStarts = defaultMaxStarts
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = defaultMaxEvents
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = defaultHeartbeat
	}
	if c.PersistProbe <= 0 {
		c.PersistProbe = defaultPersistProbe
	}
	if c.FS == nil {
		c.FS = fsx.OS
	}
}

// Server is the partitioning service. Create with New, serve its
// Handler, stop with Close.
type Server struct {
	cfg   Config
	store *store
	cache *graphCache
	mux   *http.ServeMux
	queue chan *job

	mu    sync.Mutex
	jobs  map[string]*job
	order []*job // submission (id) order
	seq   int

	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	closing atomic.Bool
	started time.Time

	// Persistence-failure state machine (docs/SERVICE.md "Degraded
	// persistence"): a failed store write flips degraded instead of
	// failing the request — the daemon keeps serving from memory, flags
	// affected jobs, and a successful write (or the periodic probe)
	// re-arms and flushes. Guarded by pmu; never held with s.mu or j.mu.
	pmu            sync.Mutex
	degraded       bool
	persistErr     string
	pfailures      int64
	dirtyGraphs    map[string][]byte
	corruptAtStart int
}

// New builds a Server: it recovers persisted state from cfg.StateDir
// (unfinished jobs re-enter the queue ahead of new traffic), then starts
// the worker pool.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	st, err := newStore(cfg.StateDir, cfg.FS)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:   cfg,
		store: st,
		cache: newGraphCache(cfg.CacheEntries),
		queue: make(chan *job, cfg.QueueDepth),
		jobs:  make(map[string]*job),
		ctx:   ctx, cancel: cancel,
		started:     time.Now(),
		dirtyGraphs: map[string][]byte{},
	}
	s.routes()
	requeue, err := s.recover()
	if err != nil {
		cancel()
		return nil, err
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.workerLoop()
	}
	if st != nil {
		s.wg.Add(1)
		go s.probeLoop()
	}
	if len(requeue) > 0 {
		// Blocking sends on purpose: recovered jobs may exceed the queue
		// capacity; they drain into workers as slots free up, ahead of
		// new submissions (which see a full queue and back off with 429).
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for _, j := range requeue {
				select {
				case s.queue <- j:
				case <-s.ctx.Done():
					return
				}
			}
		}()
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close shuts the server down gracefully: new submissions get 503,
// running jobs are interrupted at their next run-control checkpoint and
// (with a state directory) persisted back to queued for the next start,
// and every worker goroutine is joined before Close returns.
func (s *Server) Close() {
	if s.closing.Swap(true) {
		return
	}
	s.cancel()
	s.wg.Wait()
}

// recover loads persisted jobs: terminal ones are released jobs that
// keep serving results from their records, queued/running ones are
// re-queued (a re-run is deterministic, so a crash delays an answer but
// never changes it). Records that fail CRC verification were quarantined
// by the store — recovery continues without them, and the count is
// surfaced in /v1/readyz.
func (s *Server) recover() ([]*job, error) {
	recs, corrupt, err := s.store.loadJobs()
	if err != nil {
		return nil, err
	}
	s.corruptAtStart = len(corrupt)
	var requeue []*job
	for _, rec := range recs {
		spec := Spec{
			Graph: rec.Graph, Algorithm: rec.Algorithm, Starts: rec.Starts,
			Seed: rec.Seed, TimeoutMS: rec.TimeoutMS, Budget: rec.Budget,
		}
		j := newJob(rec.ID, 0, spec, nil, rec.SubmittedUnixMS, s.cfg.MaxEvents)
		if seq, ok := seqOf(rec.ID); ok && seq > s.seq {
			s.seq = seq
		}
		j.state = rec.State
		j.startedMS = rec.StartedUnixMS
		j.finishedMS = rec.FinishedUnixMS
		j.errMsg = rec.Error
		j.result = rec.Result
		switch {
		case rec.State.terminal():
			j.released = true
			j.recorded = rec.Events
			j.dropped = rec.EventsDropped
			close(j.done)
		default: // queued or running at crash/shutdown: run it (again)
			j.state = StateQueued
			j.startedMS = 0
			hash, err := parseGraphRef(rec.Graph)
			if err == nil {
				j.g, err = s.store.loadGraph(hash)
			}
			if err != nil {
				j.state = StateFailed
				j.errMsg = fmt.Sprintf("graph %s lost: %v", rec.Graph, err)
				j.finishedMS = time.Now().UnixMilli()
				close(j.done)
			} else {
				s.cache.put(hash, j.g)
				requeue = append(requeue, j)
			}
			if j.state != rec.State {
				// A failed rewrite degrades persistence rather than aborting
				// recovery: the old record still re-queues correctly on the
				// next restart.
				s.persistJob(j)
			}
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j)
	}
	return requeue, nil
}

// persistJob writes j's current record and reports whether it is
// durably on disk. A write failure never fails the caller's request:
// it flips the server to degraded persistence and marks the job
// unpersisted, to be flushed when the store re-arms.
func (s *Server) persistJob(j *job) bool {
	if s.store == nil {
		return false
	}
	if err := s.writeRecord(j); err != nil {
		s.persistFail(err)
		return false
	}
	s.persistOK()
	return true
}

// writeRecord saves a snapshot of j taken under its write lock, so
// concurrent writers of one job (the submit handler, its worker, a
// cancel, the re-arm flush) land its states in order. A durable terminal
// record releases the job and is never rewritten.
func (s *Server) writeRecord(j *job) error {
	j.wmu.Lock()
	defer j.wmu.Unlock()
	if j.isReleased() {
		return nil
	}
	rec := j.record()
	if err := s.store.saveJob(rec); err != nil {
		j.setUnpersisted()
		return err
	}
	j.setDurable(rec)
	return nil
}

// persistFail records a store write failure and enters degraded mode.
func (s *Server) persistFail(err error) {
	s.pmu.Lock()
	s.degraded = true
	s.persistErr = err.Error()
	s.pfailures++
	s.pmu.Unlock()
}

// persistOK notes a successful store write; if the server was degraded,
// it flushes everything that accumulated in memory and re-arms once the
// flush has landed, so readyz never reports ok while a record still
// waits for the disk. A write that fails meanwhile keeps it degraded.
func (s *Server) persistOK() {
	s.pmu.Lock()
	wasDegraded, failures := s.degraded, s.pfailures
	s.pmu.Unlock()
	if !wasDegraded || !s.flushUnpersisted() {
		return
	}
	s.pmu.Lock()
	if s.pfailures == failures {
		s.degraded = false
	}
	s.pmu.Unlock()
}

// flushUnpersisted retries every write that failed while degraded:
// graph uploads first (jobs reference them), then job records. It
// reports false at the first failure, which keeps the server degraded
// and leaves the rest for the next re-arm.
func (s *Server) flushUnpersisted() bool {
	s.pmu.Lock()
	graphs := s.dirtyGraphs
	s.dirtyGraphs = map[string][]byte{}
	s.pmu.Unlock()
	for hash, canonical := range graphs {
		if err := s.store.saveGraph(hash, canonical); err != nil {
			s.pmu.Lock()
			s.dirtyGraphs[hash] = canonical
			s.pmu.Unlock()
			s.persistFail(err)
			return false
		}
	}
	s.mu.Lock()
	jobs := make([]*job, len(s.order))
	copy(jobs, s.order)
	s.mu.Unlock()
	for _, j := range jobs {
		if !j.isUnpersisted() {
			continue
		}
		if err := s.writeRecord(j); err != nil {
			s.persistFail(err)
			return false
		}
	}
	return true
}

// probeLoop periodically re-probes a degraded store with a small atomic
// write; success re-arms persistence and flushes. Healthy stores are
// left alone (the probe only fires while degraded).
func (s *Server) probeLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.PersistProbe)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			s.pmu.Lock()
			degraded := s.degraded
			s.pmu.Unlock()
			if !degraded {
				continue
			}
			probe := filepath.Join(s.cfg.StateDir, ".probe")
			if err := fsx.WriteFileAtomicFS(s.cfg.FS, probe, []byte("probe\n"), 0o644); err != nil {
				s.persistFail(err)
				continue
			}
			s.persistOK()
		}
	}
}

// persistenceInfo is the persistence block of /v1/readyz and /v1/stats.
func (s *Server) persistenceInfo() map[string]any {
	if s.store == nil {
		return map[string]any{"state": "disabled"}
	}
	s.pmu.Lock()
	defer s.pmu.Unlock()
	state := "ok"
	if s.degraded {
		state = "degraded"
	}
	info := map[string]any{
		"state":       state,
		"failures":    s.pfailures,
		"quarantined": s.store.quarantinedCount(),
	}
	if s.corruptAtStart > 0 {
		info["corrupt_records_at_start"] = s.corruptAtStart
	}
	if s.persistErr != "" {
		info["last_error"] = s.persistErr
	}
	return info
}

// seqOf extracts the submission sequence number from a job id
// ("j-000017-d41d8cd9" → 17).
func seqOf(id string) (int, bool) {
	if len(id) < 9 || id[:2] != "j-" {
		return 0, false
	}
	n, err := strconv.Atoi(id[2:8])
	if err != nil {
		return 0, false
	}
	return n, true
}

// Endpoints is the routing table of the service, one "<METHOD> <path
// pattern>" per route. docs/SERVICE.md documents exactly these; the
// doc-contract test enforces the equality in both directions.
func Endpoints() []string {
	return []string{
		"GET /v1/healthz",
		"GET /v1/readyz",
		"GET /v1/stats",
		"POST /v1/graphs",
		"GET /v1/graphs/{hash}",
		"POST /v1/jobs",
		"GET /v1/jobs",
		"GET /v1/jobs/{id}",
		"DELETE /v1/jobs/{id}",
		"GET /v1/jobs/{id}/result",
		"GET /v1/jobs/{id}/events",
	}
}

// Error codes of the JSON error envelope (docs/SERVICE.md error-code
// table; the doc-contract test enforces the equality).
const (
	codeBadRequest       = "bad_request"
	codeNotFound         = "not_found"
	codeMethodNotAllowed = "method_not_allowed"
	codeConflict         = "conflict"
	codeTooLarge         = "too_large"
	codeQueueFull        = "queue_full"
	codeUnavailable      = "unavailable"
	codeInternal         = "internal"
)

// ErrorCodes lists every error code the service can emit.
func ErrorCodes() []string {
	return []string{
		codeBadRequest, codeNotFound, codeMethodNotAllowed, codeConflict,
		codeTooLarge, codeQueueFull, codeUnavailable, codeInternal,
	}
}

// routes wires the mux. Paths are registered method-less and dispatched
// inside the handlers so that wrong-method responses carry the same JSON
// envelope (plus an Allow header) as every other error.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/healthz", s.methods(map[string]http.HandlerFunc{
		http.MethodGet: s.handleHealthz,
	}))
	s.mux.HandleFunc("/v1/readyz", s.methods(map[string]http.HandlerFunc{
		http.MethodGet: s.handleReadyz,
	}))
	s.mux.HandleFunc("/v1/stats", s.methods(map[string]http.HandlerFunc{
		http.MethodGet: s.handleStats,
	}))
	s.mux.HandleFunc("/v1/graphs", s.methods(map[string]http.HandlerFunc{
		http.MethodPost: s.handleGraphUpload,
	}))
	s.mux.HandleFunc("/v1/graphs/{hash}", s.methods(map[string]http.HandlerFunc{
		http.MethodGet: s.handleGraphInfo,
	}))
	s.mux.HandleFunc("/v1/jobs", s.methods(map[string]http.HandlerFunc{
		http.MethodPost: s.handleSubmit,
		http.MethodGet:  s.handleJobList,
	}))
	s.mux.HandleFunc("/v1/jobs/{id}", s.methods(map[string]http.HandlerFunc{
		http.MethodGet:    s.handleJobGet,
		http.MethodDelete: s.handleJobCancel,
	}))
	s.mux.HandleFunc("/v1/jobs/{id}/result", s.methods(map[string]http.HandlerFunc{
		http.MethodGet: s.handleJobResult,
	}))
	s.mux.HandleFunc("/v1/jobs/{id}/events", s.methods(map[string]http.HandlerFunc{
		http.MethodGet: s.handleJobEvents,
	}))
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, codeNotFound, "unknown route "+r.URL.Path)
	})
}

func (s *Server) methods(byMethod map[string]http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if h, ok := byMethod[r.Method]; ok {
			h(w, r)
			return
		}
		allow := ""
		for m := range byMethod {
			if allow != "" {
				allow += ", "
			}
			allow += m
		}
		w.Header().Set("Allow", allow)
		writeErr(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
			fmt.Sprintf("%s not allowed on %s (allow: %s)", r.Method, r.URL.Path, allow))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]any{
		"error": map[string]string{"code": code, "message": msg},
	})
}

// writeErrLimit is writeErr with a machine-readable byte cap in the
// error object, so a client that tripped a size limit can read the
// server's actual configuration (-max-graph-bytes is deployment-
// specific) instead of parsing the message text.
func writeErrLimit(w http.ResponseWriter, status int, code, msg string, limit int64) {
	writeJSON(w, status, map[string]any{
		"error": map[string]any{"code": code, "message": msg, "limit_bytes": limit},
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports whether the daemon should receive traffic, and
// in what capacity. Degraded persistence still answers 200 — compute is
// unaffected, acks are just non-durable — with the state spelled out so
// an operator (or load balancer policy) can decide. Shutdown is 503.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.closing.Load() {
		writeErr(w, http.StatusServiceUnavailable, codeUnavailable, "daemon is shutting down")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"persistence": s.persistenceInfo(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	counts := map[State]int{}
	s.mu.Lock()
	for _, j := range s.order {
		j.mu.Lock()
		counts[j.state]++
		j.mu.Unlock()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"queue":   map[string]int{"depth": len(s.queue), "capacity": cap(s.queue)},
		"workers": s.cfg.Workers,
		"jobs": map[string]int{
			"queued":    counts[StateQueued],
			"running":   counts[StateRunning],
			"done":      counts[StateDone],
			"failed":    counts[StateFailed],
			"cancelled": counts[StateCancelled],
		},
		"cache":       s.cache.stats(),
		"persistence": s.persistenceInfo(),
		"uptime_ms":   time.Since(s.started).Milliseconds(),
	})
}

// graphInfo is the response of POST /v1/graphs and GET /v1/graphs/{hash}.
type graphInfo struct {
	Graph    string `json:"graph"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Cached   bool   `json:"cached"`
	// Persistence is "degraded" when the upload was accepted but its
	// canonical bytes have not reached disk yet (retried on re-arm).
	Persistence string `json:"persistence,omitempty"`
}

func (s *Server) handleGraphUpload(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxGraphBytes)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErrLimit(w, http.StatusRequestEntityTooLarge, codeTooLarge,
				fmt.Sprintf("graph upload exceeds %d bytes", s.cfg.MaxGraphBytes),
				s.cfg.MaxGraphBytes)
			return
		}
		writeErr(w, http.StatusBadRequest, codeBadRequest, "reading body: "+err.Error())
		return
	}
	g, err := parseGraphBody(r.URL.Query().Get("format"), data)
	if errors.Is(err, graph.ErrTooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge, codeTooLarge, err.Error())
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	canonical, hash, err := canonicalGraph(g)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	_, resident := s.cache.peek(hash)
	resident = resident || s.store.hasGraph(hash)
	s.cache.put(hash, g)
	info := graphInfo{
		Graph: hashPrefix + hash, Vertices: g.N(), Edges: g.M(), Cached: resident,
	}
	if err := s.store.saveGraph(hash, canonical); err != nil {
		// The graph is in the cache and fully usable; persistence failure
		// degrades (canonical bytes are kept for the re-arm flush) instead
		// of failing an upload whose parse succeeded.
		s.pmu.Lock()
		s.dirtyGraphs[hash] = canonical
		s.pmu.Unlock()
		s.persistFail(err)
		info.Persistence = "degraded"
	} else if s.store != nil {
		s.persistOK()
	}
	status := http.StatusCreated
	if resident {
		status = http.StatusOK
	}
	writeJSON(w, status, info)
}

// parseGraphBody parses an upload (docs/SERVICE.md): the one upload
// format is the native edge list, so format may only be absent or
// "edgelist".
func parseGraphBody(format string, data []byte) (*graph.Graph, error) {
	if format != "" && format != "edgelist" {
		return nil, fmt.Errorf("unknown format %q (want edgelist)", format)
	}
	return graph.ReadEdgeList(bytes.NewReader(data))
}

func (s *Server) handleGraphInfo(w http.ResponseWriter, r *http.Request) {
	hash, err := parseGraphRef(r.PathValue("hash"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	g, ok := s.cache.peek(hash)
	if !ok {
		if g, err = s.store.loadGraph(hash); err != nil {
			writeErr(w, http.StatusNotFound, codeNotFound, "unknown graph "+hashPrefix+hash)
			return
		}
		s.cache.put(hash, g)
	}
	writeJSON(w, http.StatusOK, graphInfo{
		Graph: hashPrefix + hash, Vertices: g.N(), Edges: g.M(), Cached: true,
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		writeErr(w, http.StatusServiceUnavailable, codeUnavailable, "daemon is shutting down")
		return
	}
	var spec Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, codeBadRequest, "job spec: "+err.Error())
		return
	}
	if spec.Starts == 0 {
		spec.Starts = 2
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.Starts > s.cfg.MaxStarts {
		spec.Starts = s.cfg.MaxStarts
	}
	switch {
	case spec.Starts < 0:
		writeErr(w, http.StatusBadRequest, codeBadRequest, "starts must be positive")
		return
	case spec.TimeoutMS < 0:
		writeErr(w, http.StatusBadRequest, codeBadRequest, "timeout_ms must be non-negative")
		return
	case spec.Budget < 0:
		writeErr(w, http.StatusBadRequest, codeBadRequest, "budget must be non-negative")
		return
	}
	if _, err := core.New(spec.Algorithm); err != nil {
		writeErr(w, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("unknown algorithm %q (have %v)", spec.Algorithm, core.Names()))
		return
	}
	hash, err := parseGraphRef(spec.Graph)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	g, ok := s.cache.acquire(hash)
	if !ok {
		if g, err = s.store.loadGraph(hash); err != nil {
			writeErr(w, http.StatusNotFound, codeNotFound, "unknown graph "+spec.Graph)
			return
		}
		s.cache.put(hash, g)
	}

	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("j-%06d-%s", s.seq, randomSuffix())
	j := newJob(id, s.seq, spec, g, time.Now().UnixMilli(), s.cfg.MaxEvents)
	s.jobs[id] = j
	s.order = append(s.order, j)
	s.mu.Unlock()

	// Snapshot before the enqueue: a fast worker may flip the state
	// before we respond.
	accepted := j.view()
	select {
	case s.queue <- j:
	default:
		s.mu.Lock()
		delete(s.jobs, id)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		writeErr(w, http.StatusTooManyRequests, codeQueueFull,
			fmt.Sprintf("job queue is full (%d queued)", cap(s.queue)))
		return
	}
	if s.store != nil && !s.persistJob(j) {
		// The job is already queued and its compute is deterministic:
		// a failed record write must not fail the submission. The ack is
		// non-durable — flagged so the client knows a crash before the
		// store re-arms would lose it.
		accepted.Persistence = "degraded"
	}
	writeJSON(w, http.StatusAccepted, accepted)
}

func randomSuffix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, len(s.order))
	copy(jobs, s.order)
	s.mu.Unlock()
	views := make([]jobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.view()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, codeNotFound, "unknown job "+id)
	}
	return j, ok
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	if q := r.URL.Query().Get("wait_ms"); q != "" {
		ms, err := strconv.ParseInt(q, 10, 64)
		if err != nil || ms < 0 {
			writeErr(w, http.StatusBadRequest, codeBadRequest, "wait_ms must be a non-negative integer")
			return
		}
		timer := time.NewTimer(time.Duration(ms) * time.Millisecond)
		defer timer.Stop()
		select {
		case <-j.done:
		case <-timer.C:
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	res, sides, released := j.doneResult()
	if res == nil {
		writeErr(w, http.StatusConflict, codeConflict,
			fmt.Sprintf("job %s is %s, not done", j.id, j.view().State))
		return
	}
	if released {
		// A record that fails to read is not quarantined here: one
		// transient read fault must not destroy a good record, and
		// recovery quarantines the ones that really are damaged.
		rec, err := s.store.loadJob(j.id)
		if err == nil && (rec.State != StateDone || rec.Result == nil || *rec.Result != *res) {
			err = fmt.Errorf("record of job %s (state %s) does not hold its result", j.id, rec.State)
		}
		if err != nil {
			writeErr(w, http.StatusInternalServerError, codeInternal, "reading result: "+err.Error())
			return
		}
		sides = rec.Sides
	}
	writeJSON(w, http.StatusOK, resultJSON(j.id, res, sides))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.finishedMS = time.Now().UnixMilli()
		j.g = nil
		close(j.done)
		j.wake()
		j.mu.Unlock()
		// A failed write degrades persistence; the cancellation itself
		// holds in memory either way.
		s.persistJob(j)
	case StateRunning:
		j.userCancel = true
		if j.cancelRun != nil {
			j.cancelRun()
		}
		j.mu.Unlock()
	default: // terminal: idempotent no-op
		j.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, j.view())
}
