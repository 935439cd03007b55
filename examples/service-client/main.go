// Example service-client is a standard-library-only client for the
// partitioning daemon (cmd/bisectd, contract in docs/SERVICE.md): it
// uploads a graph, submits a compacted-KL job, subscribes to the job's
// Server-Sent-Events stream, and renders the convergence curve live as
// the run produces it — then prints the final result.
//
//	go run ./cmd/bisectd -addr :8080 &
//	go run ./examples/service-client -addr localhost:8080
//
// Without -addr it starts an in-process daemon, so the example runs
// with zero setup:
//
//	go run ./examples/service-client
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	bisect "repro"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "service-client:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := ""
	if len(os.Args) == 3 && os.Args[1] == "-addr" {
		addr = os.Args[2]
	} else if len(os.Args) != 1 {
		return fmt.Errorf("usage: service-client [-addr host:port]")
	}
	if addr == "" {
		// No daemon given: run one in-process on a loopback port.
		srv, err := service.New(service.Config{})
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
		addr = ln.Addr().String()
		fmt.Printf("started in-process daemon on %s\n\n", addr)
	}
	base := "http://" + strings.TrimPrefix(addr, "http://")

	// A 3-regular graph on 2000 vertices with a planted bisection of
	// width 16 — the paper's hard sparse regime.
	g, err := bisect.BReg(2000, 16, 3, bisect.NewRand(1))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := bisect.WriteEdgeList(&buf, g); err != nil {
		return err
	}
	var up struct {
		Graph    string `json:"graph"`
		Vertices int    `json:"vertices"`
		Edges    int    `json:"edges"`
	}
	if err := post(base+"/v1/graphs?format=edgelist", "text/plain", buf.Bytes(), &up); err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	fmt.Printf("uploaded %d vertices / %d edges as %.23s…\n", up.Vertices, up.Edges, up.Graph)

	spec, _ := json.Marshal(map[string]any{
		"graph": up.Graph, "algorithm": "ckl", "starts": 4, "seed": 1989,
	})
	var job struct {
		ID string `json:"id"`
	}
	if err := post(base+"/v1/jobs", "application/json", spec, &job); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Printf("submitted job %s (ckl, best of 4 starts, seed 1989)\n\n", job.ID)

	// Stream the convergence curve: each SSE frame is one trace event
	// (docs/OBSERVABILITY.md schema); the stream ends with a terminal
	// frame named after the job's final state. The stream survives a
	// daemon restart: every frame carries an id, so on EOF the client
	// reconnects with Last-Event-ID and resumes where it left off — a
	// persisted daemon re-runs the job deterministically, regenerating
	// the identical event sequence. A job that a persisted daemon has
	// already finished streams its terminal frame alone.
	fmt.Printf("%-7s %-12s %6s %10s %10s\n", "start", "event", "index", "cut", "best")
	lastID := ""
	const maxConnects = 30
	for attempt := 0; attempt < maxConnects; attempt++ {
		if attempt > 0 {
			fmt.Fprintf(os.Stderr, "stream interrupted — reconnecting (resume after event %q)\n", lastID)
			time.Sleep(500 * time.Millisecond)
		}
		done, err := streamEvents(base, job.ID, &lastID)
		if done {
			return nil
		}
		if err != nil && attempt == 0 && lastID == "" {
			// The very first connection failed before any frame arrived:
			// that is a bad address or a dead daemon, not a restart.
			return fmt.Errorf("reading stream: %v", err)
		}
	}
	return fmt.Errorf("stream did not complete after %d connections", maxConnects)
}

// streamEvents subscribes to the job's event stream, resuming after
// *lastID when set, renders each frame, and advances *lastID as frames
// arrive. It returns done=true once the terminal frame has been
// rendered; any other return (connection refused while the daemon is
// down, mid-stream EOF from a kill) is a signal to reconnect.
func streamEvents(base, jobID string, lastID *string) (bool, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		return false, err
	}
	if *lastID != "" {
		req.Header.Set("Last-Event-ID", *lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	var eventName, data, frameID string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case strings.HasPrefix(line, "id: "):
			frameID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			eventName = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "": // frame complete
			if eventName != "" && data != "" {
				if done := render(eventName, data); done {
					return true, nil
				}
			}
			if frameID != "" {
				*lastID = frameID
			}
			eventName, data, frameID = "", "", ""
		}
	}
	// A scanner error or a clean EOF without a terminal frame both mean
	// the connection died mid-stream; the caller reconnects.
	return false, sc.Err()
}

// render prints one frame of the curve; it returns true on the
// terminal frame (done/failed/cancelled), which carries the result.
func render(eventName, data string) bool {
	switch eventName {
	case "done", "failed", "cancelled":
		var term struct {
			State     string  `json:"state"`
			Cut       int64   `json:"cut"`
			Imbalance int64   `json:"imbalance"`
			Seconds   float64 `json:"seconds"`
			Error     string  `json:"error"`
		}
		json.Unmarshal([]byte(data), &term)
		if term.State != "done" {
			fmt.Printf("\njob ended %s: %s\n", term.State, term.Error)
			return true
		}
		fmt.Printf("\nfinal cut %d (imbalance %d) in %.3fs — planted width was 16\n",
			term.Cut, term.Imbalance, term.Seconds)
		return true
	case "move_batch":
		// Intra-pass samples dominate the stream; the curve reads better
		// without them.
		return false
	default:
		var e struct {
			Start   int    `json:"start"`
			Index   int    `json:"index"`
			Cut     int64  `json:"cut"`
			BestCut int64  `json:"best_cut"`
			Phase   string `json:"phase"`
		}
		json.Unmarshal([]byte(data), &e)
		label := eventName
		if e.Phase != "" {
			label += "/" + e.Phase
		}
		fmt.Printf("%-7d %-12s %6d %10d %10d\n", e.Start, label, e.Index, e.Cut, e.BestCut)
		return false
	}
}

func post(url, contentType string, body []byte, out any) error {
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
