// Package fsx holds the repository's crash-safe filesystem helpers.
// Every artifact a run leaves behind — generated graphs, experiment
// tables and JSON exports, trace files, service job records — goes
// through the same write-temp + fsync + rename protocol, so a crash (or
// SIGKILL) at any instant leaves either the previous complete file or
// the new complete file on disk, never a torn half-write. Stray temp
// files from killed writers are ignorable (and are cleaned up by the
// next successful write to the same path only incidentally — they carry
// unique suffixes).
//
// All filesystem access goes through the FS seam (sysfs.go): package
// helpers use the real filesystem (OS), while the *FS variants accept an
// injected filesystem so tests can deterministically inject ENOSPC,
// fsync failures, rename failures, short writes, and read-back
// corruption (internal/faultfs).
package fsx

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// WriteFileAtomic writes data to path atomically: the bytes land in a
// temp file in path's directory, are fsynced, and the temp file is then
// renamed over path (rename within one directory is atomic on POSIX
// filesystems). The directory is fsynced afterwards so the rename itself
// survives a crash. On any error the temp file is removed and the
// previous contents of path are untouched.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return WriteFileAtomicFS(OS, path, data, perm)
}

// WriteFileAtomicFS is WriteFileAtomic on an injected filesystem.
func WriteFileAtomicFS(fs FS, path string, data []byte, perm os.FileMode) error {
	f, err := NewAtomicFileFS(fs, path, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// AtomicFile is a streaming counterpart to WriteFileAtomic: writes go to
// a hidden temp file until Commit fsyncs and renames it into place.
// Abort (or Commit after a write error) discards the temp file and
// leaves any previous file at the path untouched. Either Commit or Abort
// must be called exactly once; Abort after a successful Commit is a
// no-op, so `defer f.Abort()` is a safe cleanup pattern.
type AtomicFile struct {
	fs   FS
	f    File
	path string
	done bool
}

// NewAtomicFile opens a temp file in path's directory that Commit will
// rename to path.
func NewAtomicFile(path string, perm os.FileMode) (*AtomicFile, error) {
	return NewAtomicFileFS(OS, path, perm)
}

// NewAtomicFileFS is NewAtomicFile on an injected filesystem.
func NewAtomicFileFS(fs FS, path string, perm os.FileMode) (*AtomicFile, error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := fs.CreateTemp(dir, "."+base+".tmp*")
	if err != nil {
		return nil, err
	}
	if err := f.Chmod(perm); err != nil {
		// Error path: the chmod already failed; a secondary close/remove
		// failure adds nothing actionable.
		_ = f.Close()
		_ = fs.Remove(f.Name())
		return nil, err
	}
	return &AtomicFile{fs: fs, f: f, path: path}, nil
}

// Write implements io.Writer on the temp file.
func (a *AtomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

// Commit fsyncs the temp file, renames it over the destination path, and
// fsyncs the directory. Every error on that path — including the close
// after fsync and the directory fsync — is propagated: a swallowed error
// here would turn a failed write into silent data loss.
func (a *AtomicFile) Commit() error {
	if a.done {
		return fmt.Errorf("fsx: AtomicFile for %s already finished", a.path)
	}
	a.done = true
	if err := a.f.Sync(); err != nil {
		_ = a.f.Close()
		_ = a.fs.Remove(a.f.Name())
		return err
	}
	if err := a.f.Close(); err != nil {
		_ = a.fs.Remove(a.f.Name())
		return err
	}
	if err := a.fs.Rename(a.f.Name(), a.path); err != nil {
		_ = a.fs.Remove(a.f.Name())
		return err
	}
	return syncDir(a.fs, filepath.Dir(a.path))
}

// Abort discards the temp file. Calling it after Commit is a no-op.
// Cleanup errors are ignored: the write is already being abandoned and
// stray temp files are inert by design.
func (a *AtomicFile) Abort() {
	if a.done {
		return
	}
	a.done = true
	_ = a.f.Close()
	_ = a.fs.Remove(a.f.Name())
}

// syncDir fsyncs a directory so a just-completed rename is durable. A
// filesystem that cannot fsync directories (EINVAL/ENOTSUP — common on
// tmpfs-like mounts) degrades silently: the rename already happened. Any
// other sync or close failure is propagated — a genuinely failed
// directory fsync means the rename may not survive a crash, and callers
// (the service's degraded-persistence state machine in particular) need
// to know.
func syncDir(fs FS, dir string) error {
	d, err := fs.Open(dir)
	if err != nil {
		// Cannot open the directory at all (e.g. permissions): the rename
		// succeeded; treat like an unsupported directory fsync.
		return nil
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil && !unsupportedSync(syncErr) {
		return fmt.Errorf("fsx: fsync dir %s: %w", dir, syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("fsx: close dir %s: %w", dir, closeErr)
	}
	return nil
}

// unsupportedSync reports whether a Sync error means "this filesystem
// does not support fsync on directories" rather than a real I/O failure.
func unsupportedSync(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) ||
		errors.Is(err, syscall.ENOTTY)
}
