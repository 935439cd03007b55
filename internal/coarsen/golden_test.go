package coarsen

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/compact_golden.json from the current implementation")

// goldenCase is one graph pinned by the compaction fixture. The cases
// span the degree regimes the paper benchmarks (sparse GNP, planted
// regular) plus a small instance that drives Multilevel through several
// levels relative to its size.
type goldenCase struct {
	Name string
	g    *graph.Graph
	seed uint64
}

// goldenRecord reduces one case to hashes of everything compaction
// computes: the random maximal matching, the contracted graph (ids,
// weights, folded adjacency), and the full CompactOnce and Multilevel
// results including their trace event streams. The fixture was captured
// before the direct-CSR kernel and workspace arena landed, so passing
// it proves the rewritten pipeline reproduces the Builder-based
// implementation — RNG stream, cuts, sides, and trace bytes — exactly.
type goldenRecord struct {
	Name             string `json:"name"`
	MateHash         uint64 `json:"mate_hash"`
	CoarseHash       uint64 `json:"coarse_hash"`
	CompactCut       int64  `json:"compact_cut"`
	CompactSidesHash uint64 `json:"compact_sides_hash"`
	CompactTraceHash uint64 `json:"compact_trace_hash"`
	MultiCut         int64  `json:"multi_cut"`
	MultiSidesHash   uint64 `json:"multi_sides_hash"`
	MultiTraceHash   uint64 `json:"multi_trace_hash"`
}

func goldenCases() []goldenCase {
	mk := func(name string, g *graph.Graph, err error, seed uint64) goldenCase {
		if err != nil {
			panic(err)
		}
		return goldenCase{Name: name, g: g, seed: seed}
	}
	gnp, gnpErr := gen.GNP(300, 4.0/299.0, rng.NewFib(21))
	breg, bregErr := gen.BReg(200, 6, 4, rng.NewFib(23))
	small, smallErr := gen.GNP(80, 0.05, rng.NewFib(25))
	return []goldenCase{
		mk("gnp300_d4", gnp, gnpErr, 31),
		mk("breg200_b6_d4", breg, bregErr, 37),
		mk("gnp80_d4", small, smallErr, 41),
	}
}

func goldenInitial(g *graph.Graph, r *rng.Rand) *partition.Bisection {
	return partition.NewRandom(g, r)
}

func hashInt32s(h interface{ Write([]byte) (int, error) }, s []int32) {
	var buf [4]byte
	for _, x := range s {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
}

// hashContraction digests the contraction: coarse size, fine-to-coarse
// map, and the coarse graph's vertex weights and (sorted) adjacency.
func hashContraction(c *Contraction) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d\n", c.Coarse.N(), c.Coarse.M())
	hashInt32s(h, c.Map)
	for v := int32(0); int(v) < c.Coarse.N(); v++ {
		fmt.Fprintf(h, "v%d w%d:", v, c.Coarse.VertexWeight(v))
		for _, e := range c.Coarse.Neighbors(v) {
			fmt.Fprintf(h, " %d/%d", e.To, e.W)
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func hashTrace(events []trace.Event) uint64 {
	h := fnv.New64a()
	for _, e := range events {
		e.ElapsedNS = 0
		h.Write([]byte(capturedFormat(e)))
	}
	return h.Sum64()
}

// capturedFormat prints e with %+v as it printed when the fixture was
// captured. trace.Event has since gained Tentative, which compaction
// never sets; its zero value is left out, and a nonzero one stays in
// the hashed bytes and fails the comparison.
func capturedFormat(e trace.Event) string {
	return strings.Replace(fmt.Sprintf("%+v\n", e), " Tentative:0 ", " ", 1)
}

// goldenPipeline abstracts which implementation runs the three pinned
// stages, so the same record builder covers a fresh workspace per call
// and the reused-workspace variant.
type goldenPipeline struct {
	contract    func(g *graph.Graph, mate []int32) (*Contraction, error)
	compactOnce func(g *graph.Graph, initial InitialFunc, r *rng.Rand, obs trace.Observer) (*partition.Bisection, error)
	multilevel  func(g *graph.Graph, initial InitialFunc, r *rng.Rand, obs trace.Observer) (*partition.Bisection, error)
}

// packagePipeline runs every stage in a fresh workspace, as Multilevel
// does without MultilevelOptions.Workspace.
func packagePipeline() goldenPipeline {
	return goldenPipeline{
		contract: func(g *graph.Graph, mate []int32) (*Contraction, error) {
			return NewWorkspace().Contract(g, mate)
		},
		compactOnce: func(g *graph.Graph, initial InitialFunc, r *rng.Rand, obs trace.Observer) (*partition.Bisection, error) {
			return NewWorkspace().CompactOnce(g, nil, initial, nil, r, obs)
		},
		multilevel: func(g *graph.Graph, initial InitialFunc, r *rng.Rand, obs trace.Observer) (*partition.Bisection, error) {
			return Multilevel(g, &MultilevelOptions{Observer: obs}, initial, nil, r)
		},
	}
}

// runGoldenCase executes one fixture case through a pipeline and
// reduces it to a record.
func runGoldenCase(c goldenCase, p goldenPipeline) (goldenRecord, error) {
	rec := goldenRecord{Name: c.Name}

	mate := matching.RandomMaximal(c.g, rng.NewFib(c.seed))
	mh := fnv.New64a()
	hashInt32s(mh, mate)
	rec.MateHash = mh.Sum64()
	con, err := p.contract(c.g, mate)
	if err != nil {
		return rec, err
	}
	rec.CoarseHash = hashContraction(con)

	tr := trace.NewRecorder()
	b, err := p.compactOnce(c.g, goldenInitial, rng.NewFib(c.seed+1), tr)
	if err != nil {
		return rec, err
	}
	rec.CompactCut = b.Cut()
	sh := fnv.New64a()
	sh.Write(b.SidesRef())
	rec.CompactSidesHash = sh.Sum64()
	rec.CompactTraceHash = hashTrace(tr.Events())

	tr = trace.NewRecorder()
	mb, err := p.multilevel(c.g, goldenInitial, rng.NewFib(c.seed+2), tr)
	if err != nil {
		return rec, err
	}
	rec.MultiCut = mb.Cut()
	sh = fnv.New64a()
	sh.Write(mb.SidesRef())
	rec.MultiSidesHash = sh.Sum64()
	rec.MultiTraceHash = hashTrace(tr.Events())
	return rec, nil
}

// TestGoldenCompaction pins matching, contraction, CompactOnce, and
// Multilevel — RNG streams, cuts, side assignments, and trace event
// streams — to a committed fixture captured from the pre-kernel
// implementation.
func TestGoldenCompaction(t *testing.T) {
	path := filepath.Join("testdata", "compact_golden.json")
	if *updateGolden {
		var recs []goldenRecord
		for _, c := range goldenCases() {
			r, err := runGoldenCase(c, packagePipeline())
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
		}
		data, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want := readGoldenFixture(t, path)
	for i, c := range goldenCases() {
		got, err := runGoldenCase(c, packagePipeline())
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if got != want[i] {
			t.Errorf("%s:\n got %+v\nwant %+v", c.Name, got, want[i])
		}
	}
}

func readGoldenFixture(t *testing.T, path string) []goldenRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if n := len(goldenCases()); len(want) != n {
		t.Fatalf("fixture has %d records for %d cases; rerun with -update", len(want), n)
	}
	return want
}
