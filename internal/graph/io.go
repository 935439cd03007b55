package graph

// Serialization. Graphs are stored in one of two formats: the native
// edge list (WriteEdgeList / ReadEdgeList), a plain-text format with a
// header line, and the binary CSR image of csrfile.go (WriteCSRFile /
// OpenCSRFile). LoadFile reads either, telling them apart by content.
//
// Native format:
//
//	# optional comment lines
//	graph <n> <m> [vweights]
//	[v <vertex> <weight>]...   (only when vweights present)
//	e <u> <v> [w]              (m lines; w defaults to 1; 0-based ids)

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// parseID parses a vertex id (or any value that must fit in int32)
// without silent truncation: values outside [0, int32 max] — including
// 64-bit values that would wrap into range when converted — are errors.
func parseID(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if v < 0 || v > math.MaxInt32 {
		return 0, fmt.Errorf("value %d out of range", v)
	}
	return int32(v), nil
}

// WriteEdgeList writes g in the native edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	flag := ""
	if g.Weighted() {
		flag = " vweights"
	}
	if _, err := fmt.Fprintf(bw, "graph %d %d%s\n", g.N(), g.M(), flag); err != nil {
		return err
	}
	if g.Weighted() {
		for v := int32(0); int(v) < g.N(); v++ {
			if _, err := fmt.Fprintf(bw, "v %d %d\n", v, g.VertexWeight(v)); err != nil {
				return err
			}
		}
	}
	var werr error
	g.Edges(func(u, v, w int32) {
		if werr != nil {
			return
		}
		if w == 1 {
			_, werr = fmt.Fprintf(bw, "e %d %d\n", u, v)
		} else {
			_, werr = fmt.Fprintf(bw, "e %d %d %d\n", u, v, w)
		}
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// ReadEdgeList parses the native edge-list format.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	line := 0
	var b *Builder
	declaredM := -1
	seenM := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "graph":
			if b != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate header", line)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph: line %d: malformed header %q", line, text)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad vertex count: %v", line, err)
			}
			m, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge count: %v", line, err)
			}
			if m < 0 {
				return nil, fmt.Errorf("graph: line %d: negative edge count %d", line, m)
			}
			if m > MaxEdges {
				return nil, tooLarge("edge count", uint64(m), MaxEdges)
			}
			declaredM = m
			b = NewBuilder(n)
		case "v":
			if b == nil {
				return nil, fmt.Errorf("graph: line %d: vertex record before header", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: malformed vertex record %q", line, text)
			}
			v, err1 := parseID(fields[1])
			w, err2 := parseID(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: malformed vertex record %q", line, text)
			}
			b.SetVertexWeight(v, w)
		case "e":
			if b == nil {
				return nil, fmt.Errorf("graph: line %d: edge record before header", line)
			}
			if len(fields) != 3 && len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: malformed edge record %q", line, text)
			}
			u, err1 := parseID(fields[1])
			v, err2 := parseID(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: malformed edge record %q", line, text)
			}
			w := int32(1)
			if len(fields) == 4 {
				var err error
				w, err = parseID(fields[3])
				if err != nil {
					return nil, fmt.Errorf("graph: line %d: malformed edge weight %q", line, fields[3])
				}
			}
			b.AddWeightedEdge(u, v, w)
			seenM++
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record type %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph: missing header line")
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	if declaredM >= 0 && g.M() != declaredM {
		return nil, fmt.Errorf("graph: header declares %d edges, found %d (after merging %d records)", declaredM, g.M(), seenM)
	}
	return g, nil
}

// LoadFile loads the graph stored at path in either format. A file that
// starts with the BCSR magic is memory-mapped by OpenCSRFile and then
// Validated: the mapping checks each row but leaves adjacency symmetry,
// which every algorithm assumes, to the file's writer. Anything else is
// parsed as an edge list. The file name plays no part. Call release
// when done with the graph; a mapped graph is invalid after it.
func LoadFile(path string) (g *Graph, release func() error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	// Peek's error needs no check: a short or failed read leaves head
	// short of the magic, and the edge-list parser meets the same end of
	// file or error and reports it.
	br := bufio.NewReader(f)
	if head, _ := br.Peek(len(csrMagic)); string(head) != csrMagic {
		g, err := ReadEdgeList(br)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		return g, func() error { return nil }, nil
	}
	cf, err := OpenCSRFile(path)
	if err != nil {
		return nil, nil, err
	}
	if err := cf.Graph().Validate(); err != nil {
		cf.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return cf.Graph(), cf.Close, nil
}
