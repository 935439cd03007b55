package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"unsafe"
)

// This file implements the on-disk binary CSR format ("BCSR") and its
// loader, OpenCSRFile, which memory-maps the file and serves the graph
// zero-copy straight out of the mapping. The format exists for the
// 10^6+-vertex instances where re-parsing a text edge list on every
// run costs more than the bisection itself; an mmap open touches each
// byte at most once (a structural validation sweep) and allocates
// nothing but the Graph header.
//
// Layout (documented for external tooling in docs/PERFORMANCE.md):
// everything little-endian, every section 8-byte aligned.
//
//	[0:8)   magic "BCSRG1\x00\x00"
//	[8:16)  n — vertex count
//	[16:24) m — undirected edge count (the file stores 2m half-edges)
//	[24:32) flags: bit 1 = vertex weights (bit 0 once marked int64
//	        offsets; MaxEdges made them unnecessary and such files are
//	        refused)
//	[32:40) total edge weight (int64)
//	[40:48) total vertex weight (int64)
//	[48:56) maximum degree
//	[56:64) maximum weighted degree (int64)
//	[64:72) maximum vertex weight (int64)
//	--- sections, in order, each padded to an 8-byte boundary ---
//	off    (n+1) × 4 bytes (int32)
//	edges  2m × 8 bytes (int32 head, int32 weight — the in-memory Edge)
//	vw     n × 4 bytes, only when flag bit 1 is set
//	wdeg   n × 8 bytes (per-vertex weighted degree, int64)
//
// The header aggregates and the wdeg section duplicate what a full
// sweep could recompute; storing them is what makes the load cheap.
// They are not trusted: the open sweep recomputes every aggregate from
// the edge section and rejects the file on any mismatch, so a Graph
// served from a BCSR file satisfies exactly the invariants a Builder
// output does, except adjacency symmetry, which is the writer's
// contract. WriteCSRFile only ever writes symmetric CSR. A forged
// asymmetric file passes the sweep and is still memory-safe to read,
// but the algorithms assume symmetry: KL panics on such a graph.
// A caller loading a file it does not trust must call Validate, which
// checks every mirror, before using the graph, as LoadFile does.
//
// The mapped memory is read-only. Nothing in the public Graph API
// mutates CSR storage, so a mapped Graph is usable everywhere an
// in-memory one is; it remains valid until CSRFile.Close.

// ErrCorruptBCSR is wrapped by every validation failure the BCSR loader
// can report about the file's *contents* — truncation, bad magic, offset
// or aggregate inconsistencies, out-of-range fields. Callers distinguish
// "this file is damaged" (errors.Is(err, ErrCorruptBCSR): quarantine or
// regenerate it) from environmental failures (missing file, permissions,
// big-endian host) that retrying or fixing the setup can cure.
// OpenCSRFile never panics on attacker-controlled bytes — the fuzz
// harness in boundary_test.go holds its parser to that.
var ErrCorruptBCSR = errors.New("corrupt BCSR image")

// bcsrErrf builds a validation error carrying ErrCorruptBCSR.
func bcsrErrf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrCorruptBCSR)
}

const (
	csrMagic      = "BCSRG1\x00\x00"
	csrHeaderSize = 72
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
	offPos, edgePos, vwPos, wdegPos, total int64
}

func layoutCSR(n, m int64, hasVW bool) csrLayout {
	var l csrLayout
	l.offPos = csrHeaderSize
	l.edgePos = l.offPos + pad8((n+1)*4)
	l.vwPos = l.edgePos + 2*m*8
	l.wdegPos = l.vwPos
	if hasVW {
		l.wdegPos += pad8(n * 4)
	}
	l.total = l.wdegPos + n*8
	return l
}

// WriteCSRFile writes g in the BCSR format. It needs no buffering: it
// makes one header write and at most four whole-section writes, each
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
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(g.ew))
	binary.LittleEndian.PutUint64(hdr[40:48], uint64(g.vwUp))
	binary.LittleEndian.PutUint64(hdr[48:56], uint64(g.maxDeg))
	binary.LittleEndian.PutUint64(hdr[56:64], uint64(g.maxWDeg))
	binary.LittleEndian.PutUint64(hdr[64:72], uint64(g.maxVW))
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
	if hasVW {
		if err := writePadded(int32Bytes(g.vw)); err != nil {
			return err
		}
	}
	return writePadded(int64Bytes(g.wdeg))
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
// point directly into the mapping — the load cost is one structural
// validation sweep, no copies, no per-edge allocation. Elsewhere the
// file is read into memory with the same validation. Close the returned
// CSRFile when done with the graph.
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

// parseCSRInto validates data as a BCSR image and initializes g with
// sections aliasing it. The sweep checks everything ResetCSR would —
// offset monotonicity, head range, strict row sortedness (which rules
// out self-loops and duplicates), positive weights — and additionally
// holds the stored wdeg section and every header aggregate to the
// values recomputed from the edges.
func parseCSRInto(g *Graph, data []byte) error {
	if !hostLittleEndian {
		return bcsrErrf("BCSR requires a little-endian host")
	}
	if len(data) < csrHeaderSize {
		return bcsrErrf("BCSR file truncated: %d bytes", len(data))
	}
	if string(data[0:8]) != csrMagic {
		return bcsrErrf("not a BCSR file (bad magic)")
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	m := binary.LittleEndian.Uint64(data[16:24])
	flags := binary.LittleEndian.Uint64(data[24:32])
	ew := int64(binary.LittleEndian.Uint64(data[32:40]))
	vwUp := int64(binary.LittleEndian.Uint64(data[40:48]))
	maxDeg := binary.LittleEndian.Uint64(data[48:56])
	maxWDeg := int64(binary.LittleEndian.Uint64(data[56:64]))
	maxVW := int64(binary.LittleEndian.Uint64(data[64:72]))
	if flags&^csrFlagVW != 0 {
		return bcsrErrf("BCSR flags %#x unsupported", flags)
	}
	hasVW := flags&csrFlagVW != 0
	if n > MaxVertices {
		return fmt.Errorf("%w: %w", tooLarge("BCSR vertex count", n, MaxVertices), ErrCorruptBCSR)
	}
	if m > MaxEdges {
		return fmt.Errorf("%w: %w", tooLarge("BCSR edge count", m, MaxEdges), ErrCorruptBCSR)
	}
	l := layoutCSR(int64(n), int64(m), hasVW)
	if int64(len(data)) != l.total {
		return bcsrErrf("BCSR size %d, want %d for n=%d m=%d", len(data), l.total, n, m)
	}
	if uintptr(unsafe.Pointer(unsafe.SliceData(data)))&7 != 0 {
		return bcsrErrf("BCSR image not 8-byte aligned")
	}

	nn, half := int(n), int(2*m)
	off := sliceOf[int32](data[l.offPos:], nn+1)
	edges := sliceOf[Edge](data[l.edgePos:], half)
	var vw []int32
	if hasVW {
		vw = sliceOf[int32](data[l.vwPos:], nn)
	}
	wdeg := sliceOf[int64](data[l.wdegPos:], nn)

	if off[0] != 0 {
		return bcsrErrf("BCSR offsets start at %d, not 0", off[0])
	}
	var (
		m2       int64
		ew2      int64
		maxDeg2  int
		maxWDeg2 int64
	)
	lo := int32(0)
	for v := 0; v < nn; v++ {
		hi := off[v+1]
		if hi < lo || int(hi) > half {
			return bcsrErrf("BCSR offsets invalid at vertex %d", v)
		}
		if d := int(hi - lo); d > maxDeg2 {
			maxDeg2 = d
		}
		var wd int64
		prev := int32(-1)
		for i := lo; i < hi; i++ {
			e := edges[i]
			if e.To < 0 || int(e.To) >= nn {
				return bcsrErrf("BCSR vertex %d has neighbor %d out of range [0,%d)", v, e.To, nn)
			}
			if int(e.To) == v {
				return bcsrErrf("BCSR self-loop at vertex %d", v)
			}
			if e.To <= prev {
				return bcsrErrf("BCSR adjacency of vertex %d not strictly sorted at %d", v, e.To)
			}
			if e.W <= 0 {
				return bcsrErrf("BCSR non-positive weight %d on edge {%d,%d}", e.W, v, e.To)
			}
			prev = e.To
			wd += int64(e.W)
			if int(e.To) > v {
				m2++
				ew2 += int64(e.W)
			}
		}
		if wd != wdeg[v] {
			return bcsrErrf("BCSR stored weighted degree %d of vertex %d != actual %d", wdeg[v], v, wd)
		}
		if wd > maxWDeg2 {
			maxWDeg2 = wd
		}
		lo = hi
	}
	if int(lo) != half {
		return bcsrErrf("BCSR offsets cover %d half-edges, file stores %d", lo, half)
	}
	if m2 != int64(m) || ew2 != ew || maxDeg2 != int(maxDeg) || maxWDeg2 != maxWDeg {
		return bcsrErrf("BCSR header aggregates disagree with edge section")
	}
	var vwUp2 int64
	var maxVW2 int32 = 1
	if hasVW {
		for v, w := range vw {
			if w <= 0 {
				return bcsrErrf("BCSR non-positive vertex weight %d at vertex %d", w, v)
			}
			vwUp2 += int64(w)
			if w > maxVW2 {
				maxVW2 = w
			}
		}
	} else {
		vwUp2 = int64(nn)
	}
	if vwUp2 != vwUp || int64(maxVW2) != maxVW {
		return bcsrErrf("BCSR header vertex-weight aggregates disagree")
	}

	*g = Graph{
		n: nn, off: off, edges: edges, vw: vw, wdeg: wdeg,
		m: int(m), ew: ew, vwUp: vwUp,
		maxDeg: int(maxDeg), maxWDeg: maxWDeg, maxVW: maxVW2,
	}
	return nil
}

// sliceOf reinterprets the head of an 8-byte-aligned byte slice as n
// values of type T. Callers guarantee the byte length covers n*sizeof(T)
// (the layout size check) and the alignment (mmap pages and the
// uint64-backed buffer of readAligned are both 8-byte aligned).
func sliceOf[T int32 | int64 | Edge](b []byte, n int) []T {
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

func int64Bytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*8)
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
