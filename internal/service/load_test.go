package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLoadSmoke: 200 concurrent clients against one daemon, every job
// completing with a consistent result. Queue-full 429s are expected
// backpressure and are retried; anything else — a lost job, a failed
// job, or two jobs with the same seed disagreeing on the cut — fails the
// test. The daemon's latency and throughput are measured by the svc
// workload of cmd/benchmark.
func TestLoadSmoke(t *testing.T) {
	const (
		clients     = 200
		totalJobs   = 400
		distinctSds = 16
	)
	g := testGraph(t, 150, 4, 41)
	_, ts := newTestServer(t, Config{})
	ref := uploadGraph(t, ts, g)

	client := &http.Client{Timeout: 90 * time.Second}
	var (
		next     atomic.Int64
		done     atomic.Int64
		retried  atomic.Int64
		mu       sync.Mutex
		cuts     = map[uint64]int64{}
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= totalJobs {
					return
				}
				seed := uint64(100 + i%distinctSds)
				cut, err := loadJob(client, ts.URL, ref, seed, &retried)
				if err != nil {
					fail(fmt.Errorf("job %d: %w", i, err))
					return
				}
				mu.Lock()
				if prev, ok := cuts[seed]; ok && prev != cut {
					mu.Unlock()
					fail(fmt.Errorf("seed %d: cut drift %d vs %d under load", seed, prev, cut))
					return
				}
				cuts[seed] = cut
				done.Add(1)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if done.Load() != totalJobs {
		t.Fatalf("lost jobs: %d of %d completed", done.Load(), totalJobs)
	}
	t.Logf("load smoke: %d jobs, %d clients, %d seeds, %d 429 retries",
		totalJobs, clients, distinctSds, retried.Load())
}

// loadJob submits one job (retrying documented 429 backpressure) and
// long-polls it to completion.
func loadJob(client *http.Client, base, ref string, seed uint64, retried *atomic.Int64) (int64, error) {
	spec, _ := json.Marshal(map[string]any{
		"graph": ref, "algorithm": "kl", "starts": 1, "seed": seed,
	})
	var v struct {
		ID     string  `json:"id"`
		State  State   `json:"state"`
		Error  string  `json:"error"`
		Result *Result `json:"result"`
	}
	for {
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(spec))
		if err != nil {
			return 0, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			retried.Add(1)
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if err := decodeLoad(resp, &v); err != nil {
			return 0, fmt.Errorf("submit: %w", err)
		}
		break
	}
	for !v.State.terminal() {
		resp, err := client.Get(base + "/v1/jobs/" + v.ID + "?wait_ms=10000")
		if err != nil {
			return 0, err
		}
		if err := decodeLoad(resp, &v); err != nil {
			return 0, fmt.Errorf("poll: %w", err)
		}
	}
	if v.State != StateDone || v.Result == nil {
		return 0, fmt.Errorf("job %s ended %s (%s)", v.ID, v.State, v.Error)
	}
	return v.Result.Cut, nil
}

func decodeLoad(resp *http.Response, v any) error {
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
