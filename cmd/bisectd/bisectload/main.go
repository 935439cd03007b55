// Command bisectload is the load driver for cmd/bisectd: it simulates
// hundreds to thousands of concurrent clients hammering a daemon with
// bisection jobs and records throughput and latency percentiles in the
// repro-bench/v1 snapshot format (BENCH_5.json is a committed run; see
// docs/SERVICE.md "Operational notes").
//
//	go run ./cmd/bisectd/bisectload -self -clients 200,1000 -jobs 1000 -o BENCH_5.json
//	go run ./cmd/bisectd/bisectload -addr localhost:8080 -clients 500 -jobs 2000
//
// With -self the driver starts an in-process daemon on a loopback port,
// so one command measures a fully configured instance. Each simulated
// client loops: submit a job (unique seed), long-poll until terminal,
// record the submit→terminal latency. Queue-full 429 responses are the
// daemon's documented backpressure; the driver honors Retry-After when
// the daemon sends it (capped jittered exponential backoff otherwise)
// and reports the retry count plus retry-wait percentiles separately
// from the service latency columns. Any other error, any failed job,
// and any cut drift between jobs sharing a seed (each series cycles
// through 32 distinct seeds, so every seed is served many times) is
// fatal: a load test that loses or corrupts work has failed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsx"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/service"
)

type benchRow struct {
	Name          string  `json:"name"`
	NsPerOp       float64 `json:"ns_per_op"` // mean submit→terminal latency
	BytesPerOp    int64   `json:"bytes_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	P50NS         float64 `json:"p50_ns"`
	P95NS         float64 `json:"p95_ns"`
	P99NS         float64 `json:"p99_ns"`
	ThroughputRPS float64 `json:"throughput_rps"`
	Retries429    int64   `json:"retries_429"`
	// Retry-wait percentiles are informational: time a client spent in
	// 429 backoff, per job, across all jobs in the series. They are kept
	// out of the latency columns above, which measure the daemon alone
	// (submit→terminal minus client-side backoff sleep).
	RetryP50NS float64 `json:"retry_p50_ns,omitempty"`
	RetryP95NS float64 `json:"retry_p95_ns,omitempty"`
	RetryP99NS float64 `json:"retry_p99_ns,omitempty"`
}

type snapshot struct {
	Schema     string     `json:"schema"`
	Scale      string     `json:"scale"`
	GoVersion  string     `json:"go"`
	GOARCH     string     `json:"goarch"`
	Benchmarks []benchRow `json:"benchmarks"`
	Notes      string     `json:"notes,omitempty"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bisectload:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "", "daemon address (host:port); empty with -self starts one in-process")
	self := flag.Bool("self", false, "start an in-process daemon on a loopback port")
	clientsFlag := flag.String("clients", "200", "comma-separated concurrent-client counts, one measured series each")
	jobs := flag.Int("jobs", 1000, "total jobs per series")
	alg := flag.String("alg", "kl", "algorithm submitted")
	starts := flag.Int("starts", 2, "starts per job")
	n := flag.Int("n", 400, "Gnp graph vertices")
	deg := flag.Float64("deg", 4.0, "Gnp average degree")
	seed := flag.Uint64("seed", 1989, "graph seed; job i runs with seed+1+i")
	queue := flag.Int("queue", 0, "in-process daemon queue depth (0 = default)")
	workers := flag.Int("workers", 0, "in-process daemon workers (0 = GOMAXPROCS)")
	out := flag.String("o", "", "write a repro-bench/v1 snapshot here (atomic)")
	notes := flag.String("notes", "", "free-form note stored in the snapshot")
	flag.Parse()

	base := *addr
	if base == "" {
		if !*self {
			return fmt.Errorf("need -addr or -self")
		}
		srv, err := service.New(service.Config{QueueDepth: *queue, Workers: *workers})
		if err != nil {
			return err
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		base = ln.Addr().String()
	}
	base = "http://" + strings.TrimPrefix(base, "http://")

	// One shared graph: generated locally, uploaded once, then every job
	// is a cache hit on the daemon (the content-hash cache is part of
	// what the load test exercises).
	g, err := gen.GNP(*n, *deg/float64(*n-1), rng.NewFib(*seed))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		return err
	}
	client := &http.Client{Timeout: 0}
	resp, err := client.Post(base+"/v1/graphs?format=edgelist", "text/plain", bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	var up struct {
		Graph string `json:"graph"`
	}
	if err := decodeOK(resp, &up); err != nil {
		return fmt.Errorf("upload: %w", err)
	}

	var rows []benchRow
	for _, cs := range strings.Split(*clientsFlag, ",") {
		clients, err := strconv.Atoi(strings.TrimSpace(cs))
		if err != nil || clients <= 0 {
			return fmt.Errorf("bad -clients entry %q", cs)
		}
		row, err := runSeries(client, base, up.Graph, *alg, *starts, *seed, clients, *jobs, *n, *deg)
		if err != nil {
			return err
		}
		rows = append(rows, row)
		fmt.Printf("%-40s  %7.1f jobs/s   p50 %6.1fms   p95 %6.1fms   p99 %6.1fms   (429 retries: %d, retry wait p50/p95/p99 %.1f/%.1f/%.1fms)\n",
			row.Name, row.ThroughputRPS, row.P50NS/1e6, row.P95NS/1e6, row.P99NS/1e6,
			row.Retries429, row.RetryP50NS/1e6, row.RetryP95NS/1e6, row.RetryP99NS/1e6)
	}

	if *out != "" {
		snap := snapshot{
			Schema: "repro-bench/v1", Scale: "service",
			GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
			Benchmarks: rows, Notes: *notes,
		}
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		if err := fsx.WriteFileAtomic(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *out)
	}
	return nil
}

// distinctSeeds is how many seeds a series cycles through: every seed is
// served multiple times, and any two jobs with the same seed must report
// the same cut — determinism under concurrent load is part of the test.
const distinctSeeds = 32

func runSeries(client *http.Client, base, graphRef, alg string, starts int, seed uint64, clients, jobs, n int, deg float64) (benchRow, error) {
	var (
		next       atomic.Int64
		retries    atomic.Int64
		wg         sync.WaitGroup
		mu         sync.Mutex
		latencies  []time.Duration
		retryWaits []time.Duration
		cuts       = make(map[uint64]int64) // seed → cut, for drift detection
		firstErr   error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(jobs) {
					return
				}
				jobSeed := seed + 1 + uint64(i)%distinctSeeds
				lat, retryWait, cut, err := oneJob(client, base, graphRef, alg, starts, jobSeed, &retries)
				if err != nil {
					fail(fmt.Errorf("job %d: %w", i, err))
					return
				}
				mu.Lock()
				if prev, ok := cuts[jobSeed]; ok && prev != cut {
					mu.Unlock()
					fail(fmt.Errorf("seed %d: cut drift %d vs %d", jobSeed, prev, cut))
					return
				}
				cuts[jobSeed] = cut
				latencies = append(latencies, lat)
				retryWaits = append(retryWaits, retryWait)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	if firstErr != nil {
		return benchRow{}, firstErr
	}
	if len(latencies) != jobs {
		return benchRow{}, fmt.Errorf("lost jobs: %d of %d measured", len(latencies), jobs)
	}
	sort.Slice(latencies, func(i, k int) bool { return latencies[i] < latencies[k] })
	sort.Slice(retryWaits, func(i, k int) bool { return retryWaits[i] < retryWaits[k] })
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	pct := func(s []time.Duration, p float64) float64 {
		idx := int(p * float64(len(s)-1))
		return float64(s[idx].Nanoseconds())
	}
	return benchRow{
		Name:          fmt.Sprintf("svc_%s_gnp%d_d%g_c%d", alg, n, deg, clients),
		NsPerOp:       float64(sum.Nanoseconds()) / float64(jobs),
		P50NS:         pct(latencies, 0.50),
		P95NS:         pct(latencies, 0.95),
		P99NS:         pct(latencies, 0.99),
		ThroughputRPS: float64(jobs) / wall.Seconds(),
		Retries429:    retries.Load(),
		RetryP50NS:    pct(retryWaits, 0.50),
		RetryP95NS:    pct(retryWaits, 0.95),
		RetryP99NS:    pct(retryWaits, 0.99),
	}, nil
}

// retryBackoff computes the wait before submit attempt n (0-based
// counting of 429s already seen): the server's Retry-After header when
// present, otherwise capped exponential growth from 10ms; either way
// jittered to wait/2 + rand·wait/2 so a thundering herd of clients
// released by the same queue drain does not re-collide.
func retryBackoff(resp *http.Response, attempt int) time.Duration {
	wait := time.Duration(0)
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(strings.TrimSpace(ra)); err == nil && secs >= 0 {
			wait = time.Duration(secs) * time.Second
		}
	}
	if wait <= 0 {
		wait = 10 * time.Millisecond << uint(min(attempt, 10))
		if wait > time.Second {
			wait = time.Second
		}
	}
	half := wait / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// oneJob submits one job and long-polls it to a terminal state,
// returning the daemon-attributable latency (submit→terminal minus
// client-side backoff sleep), the total backoff sleep, and the final
// cut.
func oneJob(client *http.Client, base, graphRef, alg string, starts int, seed uint64, retries *atomic.Int64) (time.Duration, time.Duration, int64, error) {
	spec, _ := json.Marshal(map[string]any{
		"graph": graphRef, "algorithm": alg, "starts": starts, "seed": seed,
	})
	t0 := time.Now()
	var retryWait time.Duration
	var job struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Error  string `json:"error"`
		Result *struct {
			Cut int64 `json:"cut"`
		} `json:"result"`
	}
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(spec))
		if err != nil {
			return 0, 0, 0, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			// Documented backpressure: honor it and retry.
			wait := retryBackoff(resp, attempt)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			retries.Add(1)
			time.Sleep(wait)
			retryWait += wait
			continue
		}
		if err := decodeOK(resp, &job); err != nil {
			return 0, 0, 0, fmt.Errorf("submit: %w", err)
		}
		break
	}
	for !terminal(job.State) {
		resp, err := client.Get(base + "/v1/jobs/" + job.ID + "?wait_ms=10000")
		if err != nil {
			return 0, 0, 0, err
		}
		if err := decodeOK(resp, &job); err != nil {
			return 0, 0, 0, fmt.Errorf("poll: %w", err)
		}
	}
	lat := time.Since(t0) - retryWait
	if job.State != "done" || job.Result == nil {
		return 0, 0, 0, fmt.Errorf("job %s ended %s (%s)", job.ID, job.State, job.Error)
	}
	return lat, retryWait, job.Result.Cut, nil
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

func decodeOK(resp *http.Response, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}
