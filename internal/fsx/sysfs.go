package fsx

import (
	"io"
	"os"
)

// FS is the filesystem seam behind the atomic-write protocol and the
// persistence layers built on it (the service job/graph store, BENCH
// snapshot writes). Production code uses OS; tests substitute
// internal/faultfs to inject deterministic storage failures — ENOSPC,
// fsync errors, failed renames, short writes, read-back corruption —
// without touching a real disk's failure modes.
//
// The interface is deliberately exactly the operations the repository's
// persistence code performs, nothing more: a fault injector that
// implements it covers every byte the repo ever writes or reads through
// fsx-based storage.
type FS interface {
	// CreateTemp creates a new temp file in dir (os.CreateTemp semantics).
	CreateTemp(dir, pattern string) (File, error)
	// Open opens a file or directory for reading/fsync.
	Open(name string) (File, error)
	// Rename atomically renames oldpath to newpath (same directory).
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory.
	ReadDir(name string) ([]os.DirEntry, error)
	// Stat stats a path.
	Stat(name string) (os.FileInfo, error)
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
}

// File is the open-file surface the atomic protocol needs: write,
// chmod, fsync, close. Directory handles only use Sync and Close.
type File interface {
	io.Writer
	io.Reader
	Chmod(mode os.FileMode) error
	Sync() error
	Close() error
	Name() string
}

// OS is the real filesystem. Package-level helpers (WriteFileAtomic,
// NewAtomicFile) use it; the component that persists long-lived state
// (the service store) accepts an FS so tests can swap in a fault
// injector per instance without global state.
var OS FS = osFS{}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error) {
	return os.ReadDir(name)
}
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
