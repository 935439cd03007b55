package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// handleJobEvents streams a job's convergence trace as Server-Sent
// Events: replay of everything recorded so far, then live events as the
// run produces them, then exactly one terminal frame named after the
// job's terminal state. Timing fields were zeroed at record time, so
// the id/event/data frames are a deterministic function of the job spec
// — streaming a finished job twice yields byte-identical frames, and a
// live subscriber sees exactly what a later replay serves
// (docs/SERVICE.md "GET /v1/jobs/{id}/events"; pinned by the tests).
// A released job, whose record is durable, streams its terminal frame
// alone, as it would after a restart.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, codeBadRequest, "from must be a non-negative integer")
			return
		}
		from = n
	} else if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		// Browser-set on reconnect; a malformed value falls back to a
		// full replay rather than failing the stream.
		if n, err := strconv.Atoi(lei); err == nil && n >= 0 {
			from = n + 1
		}
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, codeInternal, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if !j.subscribe() {
		writeTerminal(w, fl, j)
		return
	}
	defer j.unsubscribe()

	idx := from
	for {
		evs, terminal, notify := j.eventsFrom(idx)
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", idx, e.Type, data); err != nil {
				return
			}
			idx++
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		if terminal {
			writeTerminal(w, fl, j)
			return
		}
		if len(evs) == 0 {
			// Nothing new: wait for the job to advance, the client to go
			// away, or the heartbeat interval (SSE comment keep-alive;
			// comment lines are outside the determinism guarantee).
			timer := time.NewTimer(s.cfg.Heartbeat)
			select {
			case <-notify:
				timer.Stop()
			case <-r.Context().Done():
				timer.Stop()
				return
			case <-timer.C:
				if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
					return
				}
				fl.Flush()
			}
		}
	}
}

// writeTerminal ends a stream with the job's terminal frame.
func writeTerminal(w http.ResponseWriter, fl http.Flusher, j *job) {
	name, data := j.terminalFrame()
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
	fl.Flush()
}
