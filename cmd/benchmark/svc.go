package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/service"
)

// svcAlgs is the svc job mix, cycled op by op.
var svcAlgs = []string{"ckl", "mlkl", "mlkl+spec"}

// svcSession is an in-process bisectd on a loopback port with a durable
// state directory and two workers, driven over two client connections.
type svcSession struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *http.Client
	base   string
	graphs []svcGraph
	n      int
	dir    string
}

// svcGraph is a graph resident in the daemon: its content-hash reference
// and the instance it was generated from.
type svcGraph struct {
	ref  string
	inst instance
}

// svcBaseGraphs is how many resident graphs the jobs cycle over, half
// Gbreg(2000, 16, 3) and half G2set(2000, ·, ·, 16).
const svcBaseGraphs = 8

// startSvc generates the base graphs, starts the daemon, uploads the
// graphs and runs warm-up jobs so caches and worker workspaces are warm.
func startSvc(c config, dir string) (session, time.Duration, error) {
	n, warmups := 2000, 20
	if c.scale == "tiny" {
		n, warmups = 400, 4
	}
	s := &svcSession{n: n, dir: dir}
	var genTime time.Duration
	var bodies [][]byte
	for k := 0; k < svcBaseGraphs; k++ {
		m := model{twoSet: k%2 == 1, n: n, b: 16}
		iseed := mix(ensembleSeed, instanceSalt+uint64(k))
		t0 := time.Now()
		g, err := m.generate(iseed)
		if err != nil {
			return nil, 0, fmt.Errorf("generating %v: %w", m, err)
		}
		genTime += time.Since(t0)
		body, err := edgeList(g)
		if err != nil {
			return nil, 0, err
		}
		bodies = append(bodies, body)
		s.graphs = append(s.graphs, svcGraph{inst: memInstance(m, iseed, g)})
	}

	srv, err := service.New(service.Config{StateDir: filepath.Join(dir, "state"), Workers: 2})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	s.srv = srv
	s.hs = &http.Server{Handler: srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.tr = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	s.client = &http.Client{Transport: s.tr}
	s.base = "http://" + ln.Addr().String()

	for k := range s.graphs {
		if s.graphs[k].ref, err = s.upload(bodies[k]); err != nil {
			s.close()
			return nil, 0, err
		}
	}
	for k := 0; k < warmups; k++ {
		o := s.job(svcAlgs[k%len(svcAlgs)], s.graphs[k%len(s.graphs)], mix(ensembleSeed, warmupSalt+uint64(k)), nil, nil)
		if o.err != nil {
			s.close()
			return nil, 0, fmt.Errorf("warm-up job: %w", o.err)
		}
	}
	return s, genTime, nil
}

// memInstance is an instance whose graph the client keeps in memory.
func memInstance(m model, seed uint64, g *graph.Graph) instance {
	return instance{
		name: fmt.Sprintf("%v#%016x", m, seed), planted: int64(m.b),
		open: func() (*graph.Graph, func(), error) { return g, func() {}, nil },
	}
}

func edgeList(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// op i runs one job: algorithm i mod 3 on base graph i/3 mod 8, except
// that every tenth op first uploads a freshly generated graph (a cache
// miss) and targets it. The fresh graph is generated before the op's
// clock starts.
func (s *svcSession) op(i int, t *opTrace) opOutcome {
	g := s.graphs[(i/len(svcAlgs))%len(s.graphs)]
	var body []byte
	if i%10 == 9 {
		m := model{twoSet: (i/10)%2 == 1, n: s.n, b: 16}
		iseed := mix(ensembleSeed, uploadSalt+uint64(i))
		fresh, err := m.generate(iseed)
		if err == nil {
			body, err = edgeList(fresh)
		}
		if err != nil {
			return opOutcome{err: err}
		}
		g = svcGraph{inst: memInstance(m, iseed, fresh)}
	}
	return s.job(svcAlgs[i%len(svcAlgs)], g, mix(ensembleSeed, opSalt+uint64(i)), body, t)
}

// jobView is the part of the daemon's job object the client reads.
type jobView struct {
	ID              string `json:"id"`
	State           string `json:"state"`
	Error           string `json:"error"`
	SubmittedUnixMS int64  `json:"submitted_unix_ms"`
	StartedUnixMS   int64  `json:"started_unix_ms"`
	FinishedUnixMS  int64  `json:"finished_unix_ms"`
	Result          *struct {
		Cut     int64   `json:"cut"`
		Seconds float64 `json:"seconds"`
		Stopped string  `json:"stopped"`
	} `json:"result"`
}

// job uploads (when upload is non-nil), submits, long-polls to a terminal
// state and fetches the result. Its latency runs from submit to terminal.
func (s *svcSession) job(alg string, g svcGraph, seed uint64, upload []byte, t *opTrace) opOutcome {
	var out opOutcome
	if t != nil {
		t.alg = alg
	}
	start := time.Now()
	if upload != nil {
		ui := t.begin("service.upload", nil)
		ref, err := s.upload(upload)
		t.end(ui)
		if err != nil {
			out.err = err
			return out
		}
		g.ref = ref
	}
	submitted := time.Now()
	si := t.begin("service.submit", nil)
	id, retries, err := s.submit(alg, g.ref, seed)
	t.end(si)
	out.retries = retries
	if err != nil {
		out.err = err
		return out
	}
	var v jobView
	for v.State != "done" && v.State != "failed" && v.State != "cancelled" {
		pi := t.begin("service.poll", nil)
		err := s.call(http.MethodGet, "/v1/jobs/"+id+"?wait_ms=10000", nil, &v)
		t.end(pi)
		if err != nil {
			out.err = fmt.Errorf("poll: %w", err)
			return out
		}
	}
	out.latency = time.Since(submitted)
	t.server(v)
	if v.State != "done" || v.Result == nil || v.Result.Stopped != "" {
		out.err = fmt.Errorf("job %s (%s on %s) ended %s %s", id, alg, g.inst.name, v.State, v.Error)
		return out
	}
	var res struct {
		Cut   int64 `json:"cut"`
		Sides []int `json:"sides"`
	}
	ri := t.begin("service.result", nil)
	err = s.call(http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res)
	t.end(ri)
	end := time.Now()
	out.wall = end.Sub(start)
	t.root(start, end)
	if err != nil {
		out.err = fmt.Errorf("result: %w", err)
		return out
	}
	if res.Cut != v.Result.Cut {
		out.err = fmt.Errorf("job %s: result cut %d, job cut %d", id, res.Cut, v.Result.Cut)
		return out
	}
	sides := make([]uint8, len(res.Sides))
	for k, x := range res.Sides {
		if x != 0 && x != 1 {
			out.err = fmt.Errorf("job %s: vertex %d has side %d", id, k, x)
			return out
		}
		sides[k] = uint8(x)
	}
	out.results = []bisection{{inst: g.inst, alg: alg, seed: seed, cut: res.Cut, sides: sides}}
	return out
}

// server records the daemon's own view of a job from its record: queue
// wait (submitted → started) and compute (result.seconds, ending at
// finished). The record's timestamps have millisecond resolution.
func (t *opTrace) server(v jobView) {
	if t == nil || v.StartedUnixMS == 0 {
		return
	}
	ms := int64(time.Millisecond)
	t.spans = append(t.spans, span{Op: t.op, Name: "service.queue_wait", Parent: "service.poll",
		StartNS: v.SubmittedUnixMS * ms, EndNS: v.StartedUnixMS * ms})
	if v.Result != nil {
		end := v.FinishedUnixMS * ms
		t.spans = append(t.spans, span{Op: t.op, Name: "service.compute", Parent: "service.poll",
			StartNS: end - int64(v.Result.Seconds*1e9), EndNS: end})
	}
}

func (s *svcSession) upload(body []byte) (string, error) {
	var info struct {
		Graph string `json:"graph"`
	}
	if err := s.call(http.MethodPost, "/v1/graphs?format=edgelist", body, &info); err != nil {
		return "", fmt.Errorf("upload: %w", err)
	}
	return info.Graph, nil
}

// submit posts a job, honouring the daemon's 429 backpressure (its
// Retry-After, else 100ms) and counting the retries.
func (s *svcSession) submit(alg, ref string, seed uint64) (string, int, error) {
	spec, err := json.Marshal(map[string]any{"graph": ref, "algorithm": alg, "starts": 2, "seed": seed})
	if err != nil {
		return "", 0, err
	}
	for retries := 0; ; retries++ {
		resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(spec))
		if err != nil {
			return "", retries, fmt.Errorf("submit: %w", err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			wait := 100 * time.Millisecond
			if secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && secs > 0 {
				wait = time.Duration(secs) * time.Second
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(wait)
			continue
		}
		var v jobView
		if err := decode(resp, &v); err != nil {
			return "", retries, fmt.Errorf("submit: %w", err)
		}
		return v.ID, retries, nil
	}
}

// call sends one request and decodes a 2xx JSON reply into v.
func (s *svcSession) call(method, path string, body []byte, v any) error {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	return decode(resp, v)
}

func decode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// close shuts the HTTP server down (waiting for its handlers), stops the
// daemon's workers and drops the client's connections.
func (s *svcSession) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.srv.Close()
	s.tr.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
