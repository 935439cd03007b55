package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"unsafe"
)

// This file implements the on-disk binary CSR format ("BCSR") and its
// loader, OpenCSRFile, which memory-maps the file and serves the graph
// zero-copy straight out of the mapping. The format exists for the
// 10^6+-vertex instances where re-parsing a text edge list on every
// run costs more than the bisection itself; an mmap open touches each
// byte at most once (ResetCSR's sweep over the mapped sections) and
// allocates nothing but the Graph header.
//
// Layout, version 2 (documented for external tooling in
// docs/PERFORMANCE.md): everything little-endian, every section 8-byte
// aligned.
//
//	[0:8)   magic "BCSRG2\x00\x00"
//	[8:16)  n — vertex count
//	[16:24) m — undirected edge count (the file stores 2m half-edges)
//	[24:32) flags: bit 1 = vertex weights (bit 0 once marked int64
//	        offsets; MaxEdges made them unnecessary and such files are
//	        refused)
//	--- sections, in order, each padded to an 8-byte boundary ---
//	off    (n+1) × 4 bytes (int32)
//	edges  2m × 8 bytes (int32 head, int32 weight — the in-memory Edge)
//	vw     n × 4 bytes, only when flag bit 1 is set
//
// The loader checks the header, the file size and the alignment, then
// hands the mapped sections to ResetCSR, the same check every Builder
// output and every coarse graph passes. A Graph served from a BCSR file
// therefore satisfies exactly the invariants a Builder output does,
// except full adjacency symmetry, which is the writer's contract.
// WriteCSRFile only ever writes symmetric CSR. A forged asymmetric file
// that keeps ResetCSR's count and weight totals is still memory-safe to
// read, but the algorithms assume symmetry: KL panics on such a graph.
// A caller loading a file it does not trust must call Validate, which
// checks every mirror, before using the graph, as LoadFile does.
//
// Version 1 images (magic "BCSRG1"), which also stored header
// aggregates and a weighted-degree section, are refused by version with
// ErrCorruptBCSR; write the graph again to convert one.
//
// The mapped memory is read-only. Nothing in the public Graph API
// mutates CSR storage, so a mapped Graph is usable everywhere an
// in-memory one is; it remains valid until CSRFile.Close.

// ErrCorruptBCSR is wrapped by every validation failure the BCSR loader
// can report about the file's *contents* — truncation, bad magic or an
// unread version, out-of-range header fields, and every row the
// ResetCSR check refuses. Callers distinguish "this file is damaged"
// (errors.Is(err, ErrCorruptBCSR): quarantine or regenerate it) from
// environmental failures (missing file, permissions, big-endian host)
// that retrying or fixing the setup can cure. OpenCSRFile never panics
// on attacker-controlled bytes — the fuzz harness in boundary_test.go
// holds its parser to that.
var ErrCorruptBCSR = errors.New("corrupt BCSR image")

// bcsrErrf builds a validation error carrying ErrCorruptBCSR. The
// message names no package: OpenCSRFile puts "graph: <path>: " in front
// of it.
func bcsrErrf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrCorruptBCSR)...)
}

const (
	// csrFamily opens the magic of every BCSR version; the byte after
	// it is the version.
	csrFamily     = "BCSRG"
	csrMagic      = csrFamily + "2\x00\x00"
	csrHeaderSize = 32
	csrFlagVW     = 1 << 1
)

// The zero-copy casts require Edge to be exactly two packed int32s; a
// padding change would silently corrupt the format, so pin the size at
// compile time.
var _ = [1]struct{}{}[unsafe.Sizeof(Edge{})-8]

// hostLittleEndian reports whether the host matches the format's byte
// order; the BCSR writer and loader refuse to run on big-endian hosts.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func pad8(n int64) int64 { return (n + 7) &^ 7 }

// csrLayout computes the byte offsets of each section for a graph with
// n vertices, 2m half-edges, and optional vertex weights.
type csrLayout struct {
	offPos, edgePos, vwPos, total int64
}

func layoutCSR(n, m int64, hasVW bool) csrLayout {
	var l csrLayout
	l.offPos = csrHeaderSize
	l.edgePos = l.offPos + pad8((n+1)*4)
	l.vwPos = l.edgePos + 2*m*8
	l.total = l.vwPos
	if hasVW {
		l.total += pad8(n * 4)
	}
	return l
}

// WriteCSRFile writes g in the BCSR format. It needs no buffering: it
// makes one header write and at most three whole-section writes, each
// followed by its padding.
func WriteCSRFile(w io.Writer, g *Graph) error {
	if !hostLittleEndian {
		return fmt.Errorf("graph: BCSR requires a little-endian host")
	}
	hasVW := g.vw != nil
	var hdr [csrHeaderSize]byte
	copy(hdr[0:8], csrMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.n))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(g.m))
	var flags uint64
	if hasVW {
		flags |= csrFlagVW
	}
	binary.LittleEndian.PutUint64(hdr[24:32], flags)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var pad [8]byte
	writePadded := func(b []byte) error {
		if _, err := w.Write(b); err != nil {
			return err
		}
		if rem := len(b) & 7; rem != 0 {
			if _, err := w.Write(pad[:8-rem]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writePadded(int32Bytes(g.off)); err != nil {
		return err
	}
	if err := writePadded(edgeBytes(g.edges)); err != nil {
		return err
	}
	if !hasVW {
		return nil
	}
	return writePadded(int32Bytes(g.vw))
}

// CSRFile is an open BCSR file. Graph returns the graph served from the
// file's (possibly memory-mapped) bytes; it is valid until Close.
type CSRFile struct {
	g       Graph
	release func() error
}

// Graph returns the loaded graph. It aliases the file mapping: using it
// after Close is invalid, and its storage is read-only.
func (c *CSRFile) Graph() *Graph { return &c.g }

// Close releases the mapping (or buffer). The graph obtained from Graph
// must not be used afterwards.
func (c *CSRFile) Close() error {
	if c.release == nil {
		return nil
	}
	rel := c.release
	c.release = nil
	c.g = Graph{}
	return rel()
}

// OpenCSRFile opens a BCSR file for zero-copy access. On unix hosts the
// file is memory-mapped read-only and the returned graph's CSR arrays
// point directly into the mapping — the load cost is ResetCSR's one
// sweep over the sections, no copies, no per-edge allocation. Elsewhere
// the file is read into memory with the same validation. Close the
// returned CSRFile when done with the graph.
func OpenCSRFile(path string) (*CSRFile, error) {
	data, release, err := openMapped(path)
	if err != nil {
		return nil, err
	}
	c := &CSRFile{release: release}
	if err := parseCSRInto(&c.g, data); err != nil {
		_ = release()
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	return c, nil
}

// parseCSRInto checks data's header, size and alignment as a BCSR image
// and initializes g through ResetCSR with sections aliasing data. Every
// refusal wraps ErrCorruptBCSR.
func parseCSRInto(g *Graph, data []byte) error {
	if !hostLittleEndian {
		return bcsrErrf("BCSR requires a little-endian host")
	}
	if len(data) < csrHeaderSize {
		return bcsrErrf("BCSR file truncated: %d bytes", len(data))
	}
	if magic := string(data[0:8]); magic != csrMagic {
		if v := len(csrFamily); magic[:v] == csrFamily {
			return bcsrErrf("BCSR version %q image: this build reads version %q only; write the graph again",
				magic[v:v+1], csrMagic[v:v+1])
		}
		return bcsrErrf("not a BCSR file (bad magic)")
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	m := binary.LittleEndian.Uint64(data[16:24])
	flags := binary.LittleEndian.Uint64(data[24:32])
	if flags&^csrFlagVW != 0 {
		return bcsrErrf("BCSR flags %#x unsupported", flags)
	}
	hasVW := flags&csrFlagVW != 0
	if n > MaxVertices {
		return bcsrErrf("BCSR vertex count %d exceeds limit %d: %w", n, MaxVertices, ErrTooLarge)
	}
	if m > MaxEdges {
		return bcsrErrf("BCSR edge count %d exceeds limit %d: %w", m, MaxEdges, ErrTooLarge)
	}
	l := layoutCSR(int64(n), int64(m), hasVW)
	if int64(len(data)) != l.total {
		return bcsrErrf("BCSR size %d, want %d for n=%d m=%d", len(data), l.total, n, m)
	}
	if uintptr(unsafe.Pointer(unsafe.SliceData(data)))&7 != 0 {
		return bcsrErrf("BCSR image not 8-byte aligned")
	}
	var vw []int32
	if hasVW {
		vw = sliceOf[int32](data[l.vwPos:], int(n))
	}
	off := sliceOf[int32](data[l.offPos:], int(n)+1)
	if err := g.ResetCSR(off, sliceOf[Edge](data[l.edgePos:], int(2*m)), vw); err != nil {
		// ResetCSR's message opens with the "graph: " OpenCSRFile adds.
		return bcsrErrf("%s", strings.TrimPrefix(err.Error(), "graph: "))
	}
	return nil
}

// sliceOf reinterprets the head of an 8-byte-aligned byte slice as n
// values of type T. Callers guarantee the byte length covers n*sizeof(T)
// (the layout size check) and the alignment (mmap pages and the
// uint64-backed buffer of readAligned are both 8-byte aligned).
func sliceOf[T int32 | Edge](b []byte, n int) []T {
	if n == 0 {
		return []T{}
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

func int32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*4)
}

func edgeBytes(s []Edge) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*8)
}

// readAligned loads a whole file into a uint64-backed (hence 8-byte
// aligned) buffer; the non-mmap fallback for OpenCSRFile.
func readAligned(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	buf := make([]uint64, (size+7)/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(buf))), len(buf)*8)[:size]
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	return data, nil
}
