package graph

// Serialization. Three formats are supported:
//
//   - the repository's native edge-list format (WriteEdgeList /
//     ReadEdgeList), a plain-text format with a header line;
//   - a METIS-compatible adjacency format (WriteMETIS / ReadMETIS),
//     because downstream partitioning tools speak it;
//   - JSON (MarshalJSON / UnmarshalJSON via GraphJSON), for tooling.
//
// Native format:
//
//	# optional comment lines
//	graph <n> <m> [vweights]
//	[v <vertex> <weight>]...   (only when vweights present)
//	e <u> <v> [w]              (m lines; w defaults to 1; 0-based ids)

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
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

// WriteMETIS writes g in the METIS adjacency format: a header line
// "n m [fmt]" followed by one line per vertex listing 1-based neighbor
// ids (and edge weights, when any weight differs from 1).
func WriteMETIS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	hasEW := false
	g.Edges(func(_, _, w int32) {
		if w != 1 {
			hasEW = true
		}
	})
	hasVW := g.Weighted()
	fmtCode := ""
	switch {
	case hasVW && hasEW:
		fmtCode = " 11"
	case hasVW:
		fmtCode = " 10"
	case hasEW:
		fmtCode = " 1"
	}
	if _, err := fmt.Fprintf(bw, "%d %d%s\n", g.N(), g.M(), fmtCode); err != nil {
		return err
	}
	for v := int32(0); int(v) < g.N(); v++ {
		var sb strings.Builder
		if hasVW {
			fmt.Fprintf(&sb, "%d", g.VertexWeight(v))
		}
		for _, e := range g.Neighbors(v) {
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", e.To+1)
			if hasEW {
				fmt.Fprintf(&sb, " %d", e.W)
			}
		}
		if _, err := fmt.Fprintln(bw, sb.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMETIS parses the METIS adjacency format (fmt codes 0, 1, 10, 11;
// ncon>1 is not supported).
func ReadMETIS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var b *Builder
	hasVW, hasEW := false, false
	n, v := 0, int32(0)
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(text, "%") {
			continue
		}
		if text == "" && b == nil {
			continue // blank lines before the header are ignorable
		}
		// A blank line after the header is a vertex with no neighbors.
		fields := strings.Fields(text)
		if b == nil {
			if len(fields) < 2 {
				return nil, fmt.Errorf("graph: malformed METIS header %q", text)
			}
			var err error
			n, err = strconv.Atoi(fields[0])
			if err != nil {
				return nil, fmt.Errorf("graph: bad METIS vertex count: %v", err)
			}
			m, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: bad METIS edge count: %v", err)
			}
			if m < 0 {
				return nil, fmt.Errorf("graph: negative METIS edge count %d", m)
			}
			if m > MaxEdges {
				return nil, tooLarge("METIS edge count", uint64(m), MaxEdges)
			}
			if len(fields) >= 3 {
				switch fields[2] {
				case "0", "00", "000":
				case "1", "01", "001":
					hasEW = true
				case "10", "010":
					hasVW = true
				case "11", "011":
					hasVW, hasEW = true, true
				default:
					return nil, fmt.Errorf("graph: unsupported METIS fmt %q", fields[2])
				}
			}
			if len(fields) >= 4 && fields[3] != "1" {
				return nil, fmt.Errorf("graph: unsupported METIS ncon %q", fields[3])
			}
			b = NewBuilder(n)
			continue
		}
		if int(v) >= n {
			return nil, fmt.Errorf("graph: METIS file has more than %d vertex lines", n)
		}
		i := 0
		if hasVW {
			if len(fields) == 0 {
				return nil, fmt.Errorf("graph: METIS vertex %d missing weight", v)
			}
			w, err := parseID(fields[0])
			if err != nil {
				return nil, fmt.Errorf("graph: METIS vertex %d bad weight: %v", v, err)
			}
			b.SetVertexWeight(v, w)
			i = 1
		}
		for ; i < len(fields); i++ {
			u, err := parseID(fields[i])
			if err != nil || u < 1 || int(u) > n {
				return nil, fmt.Errorf("graph: METIS vertex %d bad neighbor %q", v, fields[i])
			}
			w := int32(1)
			if hasEW {
				i++
				if i >= len(fields) {
					return nil, fmt.Errorf("graph: METIS vertex %d neighbor %d missing edge weight", v, u)
				}
				w, err = parseID(fields[i])
				if err != nil {
					return nil, fmt.Errorf("graph: METIS vertex %d bad edge weight %q", v, fields[i])
				}
			}
			// Each edge appears twice; record it once.
			if u-1 > v {
				b.AddWeightedEdge(v, u-1, w)
			}
		}
		v++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph: empty METIS input")
	}
	return b.Build()
}

// GraphJSON is the JSON wire representation of a Graph.
type GraphJSON struct {
	N             int        `json:"n"`
	VertexWeights []int32    `json:"vertexWeights,omitempty"`
	Edges         [][3]int32 `json:"edges"` // [u, v, w]
}

// ToJSON converts g to its JSON representation.
func ToJSON(g *Graph) *GraphJSON {
	j := &GraphJSON{N: g.N()}
	if g.Weighted() {
		j.VertexWeights = make([]int32, g.N())
		for v := int32(0); int(v) < g.N(); v++ {
			j.VertexWeights[v] = g.VertexWeight(v)
		}
	}
	g.Edges(func(u, v, w int32) {
		j.Edges = append(j.Edges, [3]int32{u, v, w})
	})
	return j
}

// FromJSON reconstructs a Graph from its JSON representation.
func FromJSON(j *GraphJSON) (*Graph, error) {
	b := NewBuilder(j.N)
	for v, w := range j.VertexWeights {
		b.SetVertexWeight(int32(v), w)
	}
	for _, e := range j.Edges {
		b.AddWeightedEdge(e[0], e[1], e[2])
	}
	return b.Build()
}

// MarshalGraph encodes g as JSON bytes.
func MarshalGraph(g *Graph) ([]byte, error) { return json.Marshal(ToJSON(g)) }

// UnmarshalGraph decodes JSON bytes produced by MarshalGraph.
func UnmarshalGraph(data []byte) (*Graph, error) {
	var j GraphJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, err
	}
	return FromJSON(&j)
}
