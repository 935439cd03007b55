package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// ensembleSeed fixes every workload's instances and every op's algorithm
// seed, so each workload is one fixed ensemble of (instance, seed) pairs
// and -seed only orders the ops (opOrder). Cut sizes of these heuristics
// vary with the instance and the seed far more than the bounds allow
// (best-of-2 plain KL on Gbreg(5000, 8, 3) cut 8 on half of 140 draws and
// up to 548 on the rest; finest-level KL on two Gbreg(10⁶, 1000, 3) draws
// scanned 2.6M and 4.2M pairs), so their statistics are taken over a
// fixed ensemble, and a change in cut_ratio or in the work of a run is a
// change in the code.
const ensembleSeed = 1989

// Seed salts keep the instance seeds, op seeds and fresh-upload seeds of
// the ensemble apart from each other.
const (
	instanceSalt = 1 << 40
	opSalt       = 2 << 40
	uploadSalt   = 3 << 40
	warmupSalt   = 4 << 40
)

// mix derives a seed from a base seed and a salt (SplitMix64 finalizer).
func mix(seed, salt uint64) uint64 {
	z := seed + salt*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// model is a planted-bisection generator: Gbreg(n, b, 3) or G2set(n, ·, ·,
// b) at average degree 3, the paper's families. b is the planted width.
type model struct {
	twoSet bool
	n, b   int
}

func (m model) String() string {
	if m.twoSet {
		return fmt.Sprintf("G2set(%d,d3,%d)", m.n, m.b)
	}
	return fmt.Sprintf("Gbreg(%d,%d,3)", m.n, m.b)
}

func (m model) generate(seed uint64) (*graph.Graph, error) {
	r := rng.NewFib(seed)
	if !m.twoSet {
		return gen.BReg(m.n, m.b, 3, r)
	}
	p, err := gen.TwoSetForAvgDegree(m.n, 3, m.b)
	if err != nil {
		return nil, err
	}
	return gen.TwoSet(m.n, p, p, m.b, r)
}

// cliSession runs ops that mirror `bisect -in x.csr -alg <alg> -starts k
// -threads t` for each of its algorithms: mmap-open the BCSR file, run a
// fresh core.BestOf over the algorithm with its workspace, close.
type cliSession struct {
	dir     string
	insts   []instance
	paths   []string
	algs    []string
	starts  int
	threads int
}

// startCLI generates one instance per model, instance k from
// mix(ensembleSeed, instanceSalt+k), writes each as a BCSR file into dir,
// and returns the session with the time spent generating.
func startCLI(dir string, models []model, algs []string, starts, threads int) (session, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	s := &cliSession{dir: dir, algs: algs, starts: starts, threads: threads}
	var genTime time.Duration
	for k, m := range models {
		iseed := mix(ensembleSeed, instanceSalt+uint64(k))
		t0 := time.Now()
		g, err := m.generate(iseed)
		if err != nil {
			return nil, 0, fmt.Errorf("generating %v: %w", m, err)
		}
		genTime += time.Since(t0)
		path := filepath.Join(dir, fmt.Sprintf("instance%d.csr", k))
		if err := writeCSR(path, g); err != nil {
			return nil, 0, err
		}
		s.paths = append(s.paths, path)
		s.insts = append(s.insts, instance{
			name:    fmt.Sprintf("%v#%016x", m, iseed),
			planted: int64(m.b),
			open: func() (*graph.Graph, func(), error) {
				cf, err := graph.OpenCSRFile(path)
				if err != nil {
					return nil, nil, err
				}
				return cf.Graph(), func() { cf.Close() }, nil
			},
		})
	}
	return s, genTime, nil
}

func writeCSR(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := graph.WriteCSRFile(w, g); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// op i loads instance i mod len(instances) and runs every algorithm on
// it, each from its own stream seeded with the op's seed. After the clock
// stops it empties the heap, so every op starts like a fresh `bisect`
// process and peak RSS is that of one op.
func (s *cliSession) op(i int, t *opTrace) opOutcome {
	k := i % len(s.insts)
	seed := mix(ensembleSeed, opSalt+uint64(i))
	var out opOutcome
	var bases []core.Bisector
	start := time.Now()
	li := t.begin("graph.load", nil)
	cf, err := graph.OpenCSRFile(s.paths[k])
	t.end(li)
	if err != nil {
		out.err = err
		return out
	}
	g := cf.Graph()
	t.setGraph(li, g)
	for _, alg := range s.algs {
		a, err := core.New(alg)
		if err != nil {
			out.err = err
			break
		}
		base := core.WithParallel(core.WithWorkspace(a), s.threads)
		bases = append(bases, base)
		var b core.Bisector = opaque{base}
		if t != nil {
			if b, err = instrument(base, t); err != nil {
				out.err = err
				break
			}
		}
		ri := t.beginRun(alg, g)
		bis, err := core.BestOf{Inner: b, Starts: s.starts}.Bisect(g, rng.NewFib(seed))
		t.endRun(ri)
		if err != nil {
			out.err = fmt.Errorf("%s: %w", alg, err)
			break
		}
		out.results = append(out.results, bisection{inst: s.insts[k], alg: alg, seed: seed, cut: bis.Cut(), sides: bis.Sides()})
	}
	ci := t.begin("graph.load", g)
	cerr := cf.Close()
	t.end(ci)
	end := time.Now()
	out.latency = end.Sub(start)
	out.wall = out.latency
	t.root(start, end)
	for _, b := range bases {
		release(b)
	}
	debug.FreeOSMemory()
	if out.err == nil && cerr != nil {
		out.err = cerr
	}
	return out
}

func (s *cliSession) close() error { return os.RemoveAll(s.dir) }

// paperReplicas is how many instances of each of paper5000's four models
// a set-up generates: op i runs on instance i mod 36, so a default run
// visits each once and its cut_ratio averages 36 instances, not 4.
const paperReplicas = 9

// startPaper sets up paper5000: the paper's table row at the paper's
// size, kl, sa, ckl, csa, best of two starts, on Gbreg(5000, 8|32, 3) and
// G2set(5000, ·, ·, 16|64) instances.
func startPaper(c config, dir string) (session, time.Duration, error) {
	n := 5000
	if c.scale == "tiny" {
		n = 500
	}
	var models []model
	for k := 0; k < paperReplicas; k++ {
		models = append(models, model{false, n, 8}, model{false, n, 32}, model{true, n, 16}, model{true, n, 64})
	}
	return startCLI(dir, models, []string{"kl", "sa", "ckl", "csa"}, 2, 1)
}

// startML1M sets up ml1m_t<threads>: one mlkl start on Gbreg(10⁶, 1000, 3).
func startML1M(threads int) func(c config, dir string) (session, time.Duration, error) {
	return func(c config, dir string) (session, time.Duration, error) {
		m := model{n: 1_000_000, b: 1000}
		if c.scale == "tiny" {
			m = model{n: 2000, b: 20}
		}
		return startCLI(dir, []model{m}, []string{"mlkl"}, 1, threads)
	}
}
