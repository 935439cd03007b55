// Command bisectd is the partitioning service daemon: a stdlib-only
// net/http server exposing the bisection library as a multi-tenant HTTP
// API — graph upload with content-hash caching, a bounded job queue with
// backpressure, a fixed worker pool with reusable zero-alloc workspaces,
// per-job deadlines and deterministic checkpoint budgets, convergence
// streaming over SSE, and crash-safe job persistence. Persistence
// failures degrade rather than fail: the daemon keeps serving from
// memory, reports the state on GET /v1/readyz, and re-probes the disk
// every -persist-probe until writes heal (docs/SERVICE.md, "Degraded
// persistence").
//
// The HTTP contract is docs/SERVICE.md. Quickstart:
//
//	bisectd -addr :8080 -state /var/lib/bisectd
//	curl -s --data-binary @g.el 'localhost:8080/v1/graphs?format=edgelist'
//	curl -s -X POST localhost:8080/v1/jobs \
//	     -d '{"graph":"sha256:…","algorithm":"ckl","seed":1989}'
//	curl -N 'localhost:8080/v1/jobs/j-000001-…/events'
//
// SIGINT/SIGTERM shut down gracefully: running jobs stop at their next
// run-control checkpoint and (with -state) are persisted back to queued,
// so a restart re-runs them to the same deterministic results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bisectd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	state := flag.String("state", "", "state directory for crash-safe persistence (empty = in-memory only)")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "job-queue capacity (submissions beyond it get 429)")
	cache := flag.Int("cache", 128, "graph-cache capacity (graphs, LRU)")
	maxGraphBytes := flag.Int64("max-graph-bytes", 64<<20, "graph upload size cap")
	maxStarts := flag.Int("max-starts", 4096, "per-job cap on starts")
	persistProbe := flag.Duration("persist-probe", 2*time.Second, "degraded-persistence re-probe interval (see GET /v1/readyz)")
	flag.Parse()

	srv, err := service.New(service.Config{
		StateDir:      *state,
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheEntries:  *cache,
		MaxGraphBytes: *maxGraphBytes,
		MaxStarts:     *maxStarts,
		PersistProbe:  *persistProbe,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "bisectd: listening on %s (state=%q, queue=%d)\n", *addr, *state, *queue)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		srv.Close()
		return err
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "bisectd: %v — shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutErr := httpSrv.Shutdown(ctx)
		srv.Close() // interrupts running jobs, persists them back to queued
		if shutErr != nil && !errors.Is(shutErr, context.DeadlineExceeded) {
			return shutErr
		}
		return nil
	}
}
