package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/fsx"
	"repro/internal/graph"
)

// jobSchema versions the persisted job record. Records carrying a
// different schema are refused at startup (never misread).
const jobSchema = "bisectd-job/v1"

// store is the daemon's crash-safe persistence layer: canonical graph
// bytes under graphs/, one job record per file under jobs/, every write
// through the fsx atomic protocol so a crash at any instant leaves only
// complete files (docs/SERVICE.md "Persistence format"). Every persisted
// file carries a CRC32 trailer (fsx.AppendCRC); a file that fails
// verification on read is moved to quarantine/ and surfaced as a typed
// *fsx.CorruptRecordError — never parsed, never silently dropped. A nil
// *store (no -state directory) disables persistence; all methods are
// nil-safe.
type store struct {
	dir string
	fs  fsx.FS
}

func newStore(dir string, fs fsx.FS) (*store, error) {
	if dir == "" {
		return nil, nil
	}
	for _, sub := range []string{"graphs", "jobs"} {
		if err := fs.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	return &store{dir: dir, fs: fs}, nil
}

func (s *store) graphPath(hash string) string {
	return filepath.Join(s.dir, "graphs", hash+".el")
}

func (s *store) jobPath(id string) string {
	return filepath.Join(s.dir, "jobs", id+".json")
}

// quarantine moves the file at path into <dir>/quarantine/, keeping the
// base name (with a numeric suffix on collision), and returns the
// quarantine path. The damaged bytes are preserved as evidence; the
// original path is freed so a re-upload or re-run can replace it.
func (s *store) quarantine(path string) (string, error) {
	qdir := filepath.Join(s.dir, "quarantine")
	if err := s.fs.MkdirAll(qdir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Base(path)
	qpath := filepath.Join(qdir, base)
	for i := 1; ; i++ {
		if _, err := s.fs.Stat(qpath); os.IsNotExist(err) {
			break
		}
		qpath = filepath.Join(qdir, fmt.Sprintf("%s.%d", base, i))
	}
	if err := s.fs.Rename(path, qpath); err != nil {
		return "", err
	}
	return qpath, nil
}

// quarantinedCount reports how many files sit in quarantine/.
func (s *store) quarantinedCount() int {
	if s == nil {
		return 0
	}
	entries, err := s.fs.ReadDir(filepath.Join(s.dir, "quarantine"))
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() {
			n++
		}
	}
	return n
}

// hasGraph reports whether canonical bytes for hash are on disk.
func (s *store) hasGraph(hash string) bool {
	if s == nil {
		return false
	}
	_, err := s.fs.Stat(s.graphPath(hash))
	return err == nil
}

// saveGraph persists canonical edge-list bytes (idempotent: an existing
// file is left alone — content-hashed names cannot change meaning).
func (s *store) saveGraph(hash string, canonical []byte) error {
	if s == nil {
		return nil
	}
	if s.hasGraph(hash) {
		return nil
	}
	return fsx.WriteFileAtomicFS(s.fs, s.graphPath(hash), fsx.AppendCRC(canonical), 0o644)
}

// loadGraph verifies and parses the persisted canonical bytes for hash.
// A file failing CRC verification is quarantined and the typed
// *fsx.CorruptRecordError returned: the graph is lost until re-uploaded
// (the content hash guarantees a re-upload restores identical bytes).
func (s *store) loadGraph(hash string) (*graph.Graph, error) {
	if s == nil {
		return nil, os.ErrNotExist
	}
	path := s.graphPath(hash)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := fsx.SplitCRC(path, data)
	if err != nil {
		var ce *fsx.CorruptRecordError
		if errors.As(err, &ce) {
			_, _ = s.quarantine(path)
		}
		return nil, err
	}
	return graph.ReadEdgeList(bytes.NewReader(payload))
}

// saveJob atomically rewrites the job's record; called at every state
// transition so recovery never sees a half-written state.
func (s *store) saveJob(rec jobView) error {
	if s == nil {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return fsx.WriteFileAtomicFS(s.fs, s.jobPath(rec.ID), fsx.AppendCRC(data), 0o644)
}

// loadJobs reads every persisted job record, id-sorted (ids embed the
// submission sequence number, so id order is submission order). A record
// that fails CRC verification or does not parse is quarantined and
// reported in the second return — recovery continues without it, and
// the daemon surfaces the count in /v1/readyz. A record with an unknown
// schema is still a hard error: its bytes verified intact, so this is
// foreign state, not corruption, and the daemon refuses to guess.
func (s *store) loadJobs() ([]jobView, []error, error) {
	if s == nil {
		return nil, nil, nil
	}
	entries, err := s.fs.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, nil, err
	}
	var recs []jobView
	var corrupt []error
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue // stray temp files from killed writers are ignorable
		}
		path := filepath.Join(s.dir, "jobs", name)
		rec, err := s.readJob(path)
		var ce *fsx.CorruptRecordError
		switch {
		case err == nil:
			recs = append(recs, rec)
			continue
		case !errors.As(err, &ce):
			return nil, nil, err
		}
		if _, qerr := s.quarantine(path); qerr != nil {
			return nil, nil, fmt.Errorf("quarantining %s: %w (original error: %v)", path, qerr, err)
		}
		corrupt = append(corrupt, err)
	}
	sort.Slice(recs, func(i, k int) bool { return recs[i].ID < recs[k].ID })
	return recs, corrupt, nil
}

// loadJob reads and verifies the record of job id: its CRC, its schema
// and the id it carries. Unlike loadJobs it never quarantines; the
// caller decides what a failed read means.
func (s *store) loadJob(id string) (jobView, error) {
	rec, err := s.readJob(s.jobPath(id))
	if err == nil && rec.ID != id {
		err = fmt.Errorf("job record %s carries id %q", id, rec.ID)
	}
	return rec, err
}

// readJob reads the record at path. Bytes that fail CRC verification or
// do not parse are a *fsx.CorruptRecordError; a read error or an unknown
// schema is not corruption and is returned as is.
func (s *store) readJob(path string) (jobView, error) {
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return jobView{}, err
	}
	payload, err := fsx.SplitCRC(path, data)
	if err != nil {
		return jobView{}, err
	}
	var rec jobView
	if err := json.Unmarshal(payload, &rec); err != nil {
		return jobView{}, &fsx.CorruptRecordError{Path: path, Reason: fmt.Sprintf("verified bytes do not parse: %v", err)}
	}
	if rec.Schema != jobSchema {
		return jobView{}, fmt.Errorf("job record %s: schema %q, want %q", filepath.Base(path), rec.Schema, jobSchema)
	}
	return rec, nil
}
