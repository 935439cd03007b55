package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
)

// scaleDefaultN is the default vertex count of the -scale suite: the
// million-vertex regime the compact CSR, mmap loading, and sharded
// kernels target. -scale-n raises it up to scaleMaxN = 10⁷, the
// ceiling the lifted graph.MaxVertices cap supports with headroom.
const (
	scaleDefaultN = 1_000_000
	scaleMaxN     = 10_000_000
)

// scaleDeg keeps the instance sparse like the paper's families while
// still giving every kernel multi-million half-edge arrays to chew on.
const scaleDeg = 4.0

// scaleHighDeg is the degree of the dense refinement instance, where
// every committed FM move updates dozens of neighbor gains.
const scaleHighDeg = 64.0

// scaleSuffix names an instance size the way row names embed it:
// 1_000_000 → "1m", 10_000_000 → "10m", anything else → "<n>v".
func scaleSuffix(n int) string {
	if n >= 1_000_000 && n%1_000_000 == 0 {
		return fmt.Sprintf("%dm", n/1_000_000)
	}
	return fmt.Sprintf("%dv", n)
}

// addScaleRows registers the -scale benchmark rows: generation,
// loading (text parse vs binary read vs mmap), matching, the sharded
// contraction at thread degrees 1/2/4/8 (the _t<k> suffix is the
// thread-series convention cmd/benchdiff understands), and FM
// refinement. Matching and FM are serial; their rows keep the _t1 name
// so the snapshot trajectory continues. Rows share one generated
// instance of n vertices; the load rows go through real files in dir.
// The d64 refinement row always runs at 10⁶ vertices regardless of n,
// so it stays comparable across snapshots that vary -scale-n.
func addScaleRows(add func(name string, metric float64, fn func(b *testing.B)), dir string, scaleN int) error {
	sfx := scaleSuffix(scaleN)
	p := scaleDeg / float64(scaleN-1)
	g, err := gen.GNP(scaleN, p, rng.NewFib(42))
	if err != nil {
		return err
	}
	m := float64(g.M())

	add("scale_gen_gnp"+sfx+"_d4", m, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gen.GNP(scaleN, p, rng.NewFib(42)); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("scale_stream_gnp"+sfx+"_d4", m, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gen.StreamGNP(scaleN, p, rng.NewFib(42), func(u, v int32) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Loading: the same instance as edge-list text (the parse path every
	// text format pays) and as BCSR (binary read-and-copy, and the mmap
	// fast path bisect/bisectd use for .csr inputs).
	var elBuf, csrBuf bytes.Buffer
	if err := graph.WriteEdgeList(&elBuf, g); err != nil {
		return err
	}
	if err := graph.WriteCSRFile(&csrBuf, g); err != nil {
		return err
	}
	csrPath := filepath.Join(dir, "scale.csr")
	if err := os.WriteFile(csrPath, csrBuf.Bytes(), 0o644); err != nil {
		return err
	}
	elData, csrData := elBuf.Bytes(), csrBuf.Bytes()
	add("scale_load_parse_gnp"+sfx, m, func(b *testing.B) {
		b.SetBytes(int64(len(elData)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := graph.ReadEdgeList(bytes.NewReader(elData)); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("scale_load_read_gnp"+sfx, m, func(b *testing.B) {
		b.SetBytes(int64(len(csrData)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := graph.ReadCSRFile(bytes.NewReader(csrData)); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("scale_load_mmap_gnp"+sfx, m, func(b *testing.B) {
		b.SetBytes(int64(len(csrData)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cf, err := graph.OpenCSRFile(csrPath)
			if err != nil {
				b.Fatal(err)
			}
			if cf.Graph().M() != g.M() {
				b.Fatal("edge count mismatch")
			}
			if err := cf.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Matching: the serial greedy sweep on a warm workspace.
	add("scale_match_gnp"+sfx+"_t1", 0, func(b *testing.B) {
		w := matching.NewWorkspace()
		r := rng.NewFib(7)
		w.RandomMaximal(g, r) // warm the arena
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.RandomMaximal(g, r)
		}
	})

	// Contraction thread series: identical work at every degree — the
	// sharded row-count/row-write kernel is byte-identical to the serial
	// cursor kernel — over one fixed matching.
	mate := matching.NewWorkspace().RandomMaximal(g, rng.NewFib(7))
	for _, threads := range []int{1, 2, 4, 8} {
		threads := threads
		w := coarsen.NewWorkspace()
		w.SetParallel(threads)
		add(fmt.Sprintf("scale_contract_gnp%s_t%d", sfx, threads), 0, func(b *testing.B) {
			contract := func() {
				w.Reset()
				if _, err := w.Contract(g, mate); err != nil {
					b.Fatal(err)
				}
			}
			contract() // warm the arena
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				contract()
			}
		})
	}

	// Refinement: one steady-state FM pass on a warmed refiner, on the
	// sparse instance and on a degree-64 million-vertex one.
	g64, err := gen.GNP(scaleDefaultN, scaleHighDeg/float64(scaleDefaultN-1), rng.NewFib(43))
	if err != nil {
		return err
	}
	for _, row := range []struct {
		name string
		g    *graph.Graph
	}{
		{"scale_fm_pass_gnp" + sfx + "_t1", g},
		{"scale_fm_pass_gnp1m_d64_t1", g64},
	} {
		w := fm.NewRefiner()
		bis := partition.NewRandom(row.g, rng.NewFib(9))
		if _, _, err := w.Pass(bis, fm.Options{}); err != nil {
			return err
		}
		add(row.name, 0, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := w.Pass(bis, fm.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Spectral Fiedler-solver rows: Lanczos vs power matvec counts (see
	// scenarios.go).
	return addSpectralScaleRows(add, scaleN)
}
