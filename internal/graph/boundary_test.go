package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestBuilderAtVertexCap exercises Builder exactly at MaxVertices and
// one past it: the cap must reject before any O(n) allocation, and a
// graph at exactly the cap must build and serve its accessors. The
// at-cap build allocates a few GB transiently — that is the point: the
// 2²⁷ ceiling is a supported configuration, not a theoretical one.
func TestBuilderAtVertexCap(t *testing.T) {
	if _, err := NewBuilder(MaxVertices + 1).Build(); err == nil {
		t.Fatal("Builder accepted MaxVertices+1 vertices")
	} else if !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("unexpected over-cap error: %v", err)
	}

	if testing.Short() {
		t.Skip("at-cap build allocates several GB")
	}
	b := NewBuilder(MaxVertices)
	b.AddEdge(0, MaxVertices-1)
	b.AddEdge(MaxVertices-1, MaxVertices-2)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build at MaxVertices: %v", err)
	}
	if g.N() != MaxVertices || g.M() != 2 {
		t.Fatalf("got n=%d m=%d, want n=%d m=2", g.N(), g.M(), MaxVertices)
	}
	if d := g.Degree(MaxVertices - 1); d != 2 {
		t.Fatalf("degree of top vertex = %d, want 2", d)
	}
}

// bcsrHeader builds a 72-byte BCSR header with the given vertex count,
// edge count, and flags — enough to drive parseCSRInto's validation
// order without materializing a body.
func bcsrHeader(n, m, flags uint64) []byte {
	hdr := make([]byte, csrHeaderSize)
	copy(hdr[0:8], csrMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], n)
	binary.LittleEndian.PutUint64(hdr[16:24], m)
	binary.LittleEndian.PutUint64(hdr[24:32], flags)
	return hdr
}

// TestBCSRHeaderAtVertexCap pins the BCSR header validation at the cap
// boundary: MaxVertices+1 is refused by the cap check itself, while
// exactly MaxVertices passes the cap and fails later on the (absent)
// body — proving the boundary sits between the two.
func TestBCSRHeaderAtVertexCap(t *testing.T) {
	_, err := parseBCSR(bcsrHeader(MaxVertices+1, 0, 0))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("n=MaxVertices+1: got %v, want vertex-cap error", err)
	}
	_, err = parseBCSR(bcsrHeader(MaxVertices, 0, 0))
	if err == nil {
		t.Fatal("header-only image accepted")
	}
	if strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("n=MaxVertices rejected by the cap check: %v", err)
	}
	if !strings.Contains(err.Error(), "size") {
		t.Fatalf("n=MaxVertices: got %v, want size-mismatch error", err)
	}
}

// TestBCSRCompactOffsetOverflow pins the int32-offset guard at the
// MaxEdges boundary: one edge past the cap is refused by the cap check
// itself with ErrTooLarge, exactly MaxEdges passes it and fails later on
// the (absent) body, and the retired int64-offset flag is refused
// whatever the counts.
func TestBCSRCompactOffsetOverflow(t *testing.T) {
	_, err := parseBCSR(bcsrHeader(1<<20, MaxEdges+1, 0))
	if !errors.Is(err, ErrTooLarge) || !errors.Is(err, ErrCorruptBCSR) {
		t.Fatalf("m=MaxEdges+1: got %v, want ErrTooLarge and ErrCorruptBCSR", err)
	}
	_, err = parseBCSR(bcsrHeader(1<<20, MaxEdges, 0))
	if err == nil || errors.Is(err, ErrTooLarge) || !strings.Contains(err.Error(), "size") {
		t.Fatalf("m=MaxEdges: got %v, want size-mismatch error", err)
	}
	_, err = parseBCSR(bcsrHeader(4, 3, 1))
	if err == nil || !strings.Contains(err.Error(), "flags") {
		t.Fatalf("int64-offset flag: got %v, want unsupported-flags error", err)
	}
}

// validBCSRImage returns the serialized bytes of a small valid graph —
// the mutation base for corruption tests and fuzz seeds.
func validBCSRImage(tb testing.TB) []byte {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSRFile(&buf, g); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// parseBCSR runs OpenCSRFile's parser on an image held in memory. The
// bytes are copied into a uint64-backed buffer first, so the sections
// are 8-byte aligned as they are in a mapping.
func parseBCSR(data []byte) (*Graph, error) {
	buf := make([]uint64, (len(data)+7)/8)
	aligned := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(buf))), len(buf)*8)[:len(data)]
	copy(aligned, data)
	g := &Graph{}
	if err := parseCSRInto(g, aligned); err != nil {
		return nil, err
	}
	return g, nil
}

// flipBit returns a copy of data with one bit flipped.
func flipBit(data []byte, byteIdx, bit int) []byte {
	out := append([]byte(nil), data...)
	out[byteIdx] ^= 1 << bit
	return out
}

// FuzzReadBCSR drives the BCSR reader with hostile images. Seeds cover
// the validation boundaries: the vertex cap, an edge count that
// overflows int32 offsets (must be refused), the retired int64-offset
// flag, truncations, and mid-section single-bit flips in a
// valid image — corruptions that pass the header checks and must be
// caught by the structural sweep. Any rejection must carry
// ErrCorruptBCSR; any acceptance must yield a Validate-clean graph.
func FuzzReadBCSR(f *testing.F) {
	valid := validBCSRImage(f)
	f.Add(valid)
	f.Add(valid[:csrHeaderSize])
	f.Add(bcsrHeader(MaxVertices, 2, 0))
	f.Add(bcsrHeader(MaxVertices+1, 2, 0))
	f.Add(bcsrHeader(1<<20, 1<<30, 0)) // int32 offset overflow
	f.Add(bcsrHeader(1<<20, 1<<30, 1)) // retired int64-offset flag
	f.Add(bcsrHeader(1<<62, 1<<62, csrFlagVW))
	// Mid-section bit flips past the header: offsets, edges, wdeg. The
	// header (size, counts, flags) still validates; the body sweep must
	// reject. Also truncations that keep a plausible header.
	for _, idx := range []int{csrHeaderSize + 1, csrHeaderSize + 16, len(valid) - 9, len(valid) - 1} {
		f.Add(flipBit(valid, idx, 0))
		f.Add(flipBit(valid, idx, 7))
	}
	f.Add(valid[:len(valid)-8])
	f.Add(valid[:len(valid)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := parseBCSR(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptBCSR) {
				t.Fatalf("BCSR rejection not typed ErrCorruptBCSR: %v", err)
			}
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("BCSR reader accepted invalid graph: %v", verr)
		}
	})
}

// TestBCSRCorruptionTyped holds the BCSR parser, on bytes in memory and
// through OpenCSRFile's mapping, to one contract on damaged images:
// a typed ErrCorruptBCSR, never a panic, never silent acceptance. The
// mutations are single-bit flips in every section of a valid image plus
// truncations that keep the header intact.
func TestBCSRCorruptionTyped(t *testing.T) {
	valid := validBCSRImage(t)
	type mutation struct {
		name string
		data []byte
	}
	muts := []mutation{
		{"offset-flip", flipBit(valid, csrHeaderSize+1, 3)},
		// Bit 2 pushes a neighbor id in [0,4) out of range — a low-bit flip
		// could instead yield an asymmetric-but-consistent image, which the
		// sweep documents as the writer's contract (Validate's job).
		{"edge-head-flip", flipBit(valid, csrHeaderSize+5*8, 2)},
		{"wdeg-flip", flipBit(valid, len(valid)-5, 2)},
		{"tail-truncated", valid[:len(valid)-8]},
		{"ragged-truncated", valid[:len(valid)-3]},
		{"header-aggregate-flip", flipBit(valid, 33, 0)}, // total edge weight
	}
	dir := t.TempDir()
	for _, mut := range muts {
		t.Run(mut.name, func(t *testing.T) {
			// The parser on bytes in memory.
			if g, err := parseBCSR(mut.data); err == nil {
				// A flip can land in padding or dead bytes; acceptance is then
				// only legal if the graph is fully valid.
				if verr := g.Validate(); verr != nil {
					t.Fatalf("parser accepted corrupt image: %v", verr)
				}
				t.Skip("mutation landed in dead bytes")
			} else if !errors.Is(err, ErrCorruptBCSR) {
				t.Fatalf("parser error not typed: %v", err)
			}
			// Mmap loader, through a real file.
			path := filepath.Join(dir, mut.name+".bcsr")
			if err := os.WriteFile(path, mut.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenCSRFile(path); err == nil {
				t.Fatal("OpenCSRFile accepted an image the parser refused")
			} else if !errors.Is(err, ErrCorruptBCSR) {
				t.Fatalf("OpenCSRFile error not typed: %v", err)
			}
		})
	}
}

// TestSizeCapsAreTyped pins the one size cap every construction path
// shares: the Builder's vertex cap and the edge-list parser's header
// edge cap refuse with ErrTooLarge, and exactly MaxEdges in a header
// passes the cap.
func TestSizeCapsAreTyped(t *testing.T) {
	if _, err := NewBuilder(MaxVertices + 1).Build(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Builder over the vertex cap: got %v, want ErrTooLarge", err)
	}
	over, at := strconv.Itoa(MaxEdges+1), strconv.Itoa(MaxEdges)
	for _, c := range []struct {
		name string
		read func(string) error
	}{
		{"edge list", func(s string) error { _, err := ReadEdgeList(strings.NewReader("graph 4 " + s + "\n")); return err }},
	} {
		if err := c.read(over); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s header with MaxEdges+1 edges: got %v, want ErrTooLarge", c.name, err)
		}
		if err := c.read(at); errors.Is(err, ErrTooLarge) {
			t.Errorf("%s header with MaxEdges edges hit the cap: %v", c.name, err)
		}
	}
}
