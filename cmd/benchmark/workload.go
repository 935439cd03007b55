package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
)

// A run sets its workload up at least minSetups times and until the
// set-ups have taken minSetupTime together, at most maxSetups times;
// setup_s is their median, and the last set-up serves the measured ops.
// A set-up of a tenth of a second thus gets a median over twenty, one of
// seconds a median over three.
const (
	minSetups    = 3
	maxSetups    = 20
	minSetupTime = 2 * time.Second
)

// workload is one fixed input set. start generates the inputs into dir
// and returns a session that runs ops on them, plus the time spent in the
// generators alone.
type workload struct {
	name    string
	clients int     // closed-loop clients issuing ops concurrently
	threads int     // within-run threads of each op (ml1m_t2 needs two cores)
	tailPct float64 // percentile reported as latency_tail_ms
	ops     int     // ops per refSeconds of -seconds on the reference host
	start   func(c config, dir string) (session, time.Duration, error)
}

// refSeconds is the default run length, the one the workloads' op counts
// are sized for.
const refSeconds = 30

// opCount is the number of ops a run of the given length performs. A
// fixed count makes two runs of one seed do identical work; a host too
// slow to finish them in twice the time stops at that deadline instead.
func (w workload) opCount(seconds float64) int {
	return max(1, int(math.Round(float64(w.ops)*seconds/refSeconds)))
}

// session runs ops on one set-up instance of a workload. op must be safe
// to call from several clients at once; close stops everything the
// session started, waits for it and removes the session's files.
type session interface {
	op(i int, t *opTrace) opOutcome
	close() error
}

var workloads = []workload{
	{name: "paper5000", clients: 1, threads: 1, tailPct: 75, ops: 36, start: startPaper},
	{name: "ml1m_t1", clients: 1, threads: 1, tailPct: 75, ops: 5, start: startML1M(1)},
	{name: "ml1m_t2", clients: 1, threads: 2, tailPct: 75, ops: 5, start: startML1M(2)},
	{name: "svc", clients: 2, threads: 1, tailPct: 99, ops: 3000, start: startSvc},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is one generated input graph. open returns the graph for
// certification and a release function.
type instance struct {
	name    string
	planted int64 // planted bisection width, the yardstick of cut_ratio
	open    func() (*graph.Graph, func(), error)
}

// bisection is one result an op returned: the system's reported cut and
// the sides, certified after the clock stops.
type bisection struct {
	inst  instance
	alg   string
	seed  uint64
	cut   int64
	sides []uint8
}

// opOutcome is what one op produced. latency is the user-visible latency
// (the whole op on the CLI workloads, submit to terminal on svc); wall is
// the whole op, the base of the per-layer shares.
type opOutcome struct {
	latency time.Duration
	wall    time.Duration
	retries int
	results []bisection
	err     error
	trace   *opTrace

	records []record // filled by certification
	failure string   // first error or certification failure; "" if none
}

// execute sets the workload up, runs the measured closed loop, certifies
// every result and, with tracing, replays the same ops with spans on a
// fresh set-up and checks that each traced result equals its untraced
// twin.
func execute(c config, w workload, stderr io.Writer) (*resultDoc, error) {
	dir := filepath.Join(c.out, fmt.Sprintf("work-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	doc := &resultDoc{
		Schema: resultSchema, Workload: w.name, Seed: c.seed, Seconds: c.seconds,
		Scale: c.scale, Trace: c.trace, Host: stampHost(), Comparable: true,
		TailPercentile: w.tailPct,
	}
	if w.threads > doc.Host.GOMAXPROCS {
		msg := fmt.Sprintf("%s runs %d threads but GOMAXPROCS is %d; its times are not comparable", w.name, w.threads, doc.Host.GOMAXPROCS)
		fmt.Fprintln(stderr, "benchmark: warning:", msg)
		doc.Warnings = append(doc.Warnings, msg)
		doc.Comparable = false
	}

	var setups, gens []float64
	var s session
	var setupTime time.Duration
	for k := 0; k < minSetups || k < maxSetups && setupTime < minSetupTime; k++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("closing set-up: %w", err)
			}
		}
		debug.FreeOSMemory() // every set-up starts from an empty heap
		t0 := time.Now()
		var gen time.Duration
		var err error
		s, gen, err = w.start(c, filepath.Join(dir, fmt.Sprintf("setup%d", k)))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		setupTime += d
		setups = append(setups, d.Seconds())
		gens = append(gens, gen.Seconds()*1e3)
	}

	seconds := c.seconds
	if c.trace {
		// The replay repeats the same ops, so the measured half leaves room
		// for it within the run's time.
		seconds /= 2
	}
	order := opOrder(c.seed, w.opCount(seconds))
	// peak_rss_mb covers the ops alone: the set-ups' generators (a 10⁶-vertex
	// graph in memory on ml1m) must not set it.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	outs := runLoop(s, w.clients, order, t0.Add(time.Duration(2*seconds*float64(time.Second))), false)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	peak, err := peakRSSKB()
	if err != nil {
		return nil, err
	}
	if err := certifyAll(outs); err != nil {
		return nil, err
	}
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("closing set-up: %w", err)
	}
	doc.Ops = len(outs)
	doc.Attempted = len(outs)
	doc.SetupsS = setups
	doc.addOutcomes(outs)
	for _, o := range outs {
		doc.LatenciesMS = append(doc.LatenciesMS, o.latency.Seconds()*1e3)
	}

	if !c.trace {
		doc.Metrics = endToEnd(w, outs, wall, cpu, peak, setups)
	} else {
		ts, gen, err := w.start(c, filepath.Join(dir, "traced"))
		if err != nil {
			return nil, fmt.Errorf("setup for the traced replay: %w", err)
		}
		gens = append(gens, gen.Seconds()*1e3)
		touts := runLoop(ts, w.clients, order[:len(outs)], time.Time{}, true)
		if err := certifyAll(touts); err != nil {
			return nil, err
		}
		if err := ts.close(); err != nil {
			return nil, fmt.Errorf("closing the replay's set-up: %w", err)
		}
		compareTwins(outs, touts)
		doc.Attempted += len(touts)
		doc.addOutcomes(touts)
		doc.Metrics, doc.LayersMS = perLayer(outs, touts, gens)
		if err := writeTrace(filepath.Join(c.out, "trace-"+w.name+".jsonl"), touts); err != nil {
			return nil, err
		}
	}
	doc.Correct = doc.Failed == 0
	return doc, nil
}

// opOrder is the order in which a run of the given seed visits ops
// [0, n) of its workload's ensemble.
func opOrder(seed uint64, n int) []int { return rng.NewFib(seed).Perm(n) }

// runLoop is the closed loop: clients goroutines each take the next op of
// order and run it, until every op is done or, when deadline is set, no
// new op starts after it (at least one op runs). Ops are handed out in
// order, so result i is op order[i] and the ops run are exactly
// order[:len(result)].
func runLoop(s session, clients int, order []int, deadline time.Time, traced bool) []opOutcome {
	var (
		mu   sync.Mutex
		outs []opOutcome
		wg   sync.WaitGroup
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		i := len(outs)
		if i >= len(order) || i > 0 && !deadline.IsZero() && time.Now().After(deadline) {
			return 0, false
		}
		outs = append(outs, opOutcome{})
		return i, true
	}
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				var t *opTrace
				if traced {
					t = newOpTrace(i)
				}
				o := s.op(order[i], t)
				o.trace = t
				mu.Lock()
				outs[i] = o
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs
}

// compareTwins fails every traced op whose results differ from the
// untraced run of the same op: tracing must not change a single side.
func compareTwins(outs, touts []opOutcome) {
	for i := range touts {
		if touts[i].failure != "" || outs[i].failure != "" {
			continue
		}
		a, b := outs[i].records, touts[i].records
		same := len(a) == len(b)
		for k := 0; same && k < len(a); k++ {
			same = a[k] == b[k]
		}
		if !same {
			touts[i].failure = fmt.Sprintf("op %d: traced results %v differ from untraced %v", i, b, a)
		}
	}
}

// resultSchema names the result-document format written per run.
const resultSchema = "repro-benchmark-result/v1"

// resultDoc is one workload run's full record: what the summary line
// reports plus the stamps, sample counts and per-op determinism records
// that -check compares across sets.
type resultDoc struct {
	Schema         string             `json:"schema"`
	Workload       string             `json:"workload"`
	Seed           uint64             `json:"seed"`
	Seconds        float64            `json:"seconds"`
	Scale          string             `json:"scale"`
	Trace          bool               `json:"trace"`
	Host           hostStamp          `json:"host"`
	Comparable     bool               `json:"comparable"`
	Warnings       []string           `json:"warnings,omitempty"`
	Ops            int                `json:"ops"`
	TailPercentile float64            `json:"tail_percentile"`
	Correct        bool               `json:"correct"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	Failures       []string           `json:"failures,omitempty"`
	Metrics        map[string]metric  `json:"metrics"`
	SetupsS        []float64          `json:"setups_s"`
	LatenciesMS    []float64          `json:"latencies_ms"`
	LayersMS       map[string]float64 `json:"layers_ms,omitempty"`
	Records        []record           `json:"records"`
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// maxFailureMessages caps the failure messages a result document keeps.
const maxFailureMessages = 10

// addOutcomes counts failed ops and appends the determinism records of
// the untraced ops (traced ops are their twins and add no new records).
func (d *resultDoc) addOutcomes(outs []opOutcome) {
	for _, o := range outs {
		if o.failure != "" {
			d.Failed++
			if len(d.Failures) < maxFailureMessages {
				d.Failures = append(d.Failures, o.failure)
			}
		}
		if o.trace == nil {
			d.Records = append(d.Records, o.records...)
		}
	}
}

// hostStamp identifies the machine and build a result came from.
type hostStamp struct {
	NumCPU      int     `json:"num_cpu"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	VCSRevision string  `json:"vcs_revision"`
	VCSModified bool    `json:"vcs_modified"`
	LoadAvg1m   float64 `json:"loadavg_1m"`
}

func stampHost() hostStamp {
	h := hostStamp{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.VCSRevision = s.Value
			case "vcs.modified":
				h.VCSModified = s.Value == "true"
			}
		}
	}
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) == nil {
		h.LoadAvg1m = float64(si.Loads[0]) / (1 << 16) // SI_LOAD_SHIFT fixed point
	}
	return h
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS sets the process's peak resident set (VmHWM) to its
// current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSSKB is the process's peak resident set (VmHWM) in KiB since the
// last resetPeakRSS.
func peakRSSKB() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading the peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

// writeResult stores doc as <out>/<workload>-seed<seed>-trace<0|1>.json,
// the layout -check reads.
func writeResult(out string, doc *resultDoc) error {
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	trace := 0
	if doc.Trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", doc.Workload, doc.Seed, trace)
	return os.WriteFile(filepath.Join(out, name), append(data, '\n'), 0o644)
}

// printDoc prints one line per metric, with the sample count.
func printDoc(w io.Writer, d *resultDoc) {
	fmt.Fprintf(w, "%s: seed %d, %d ops (tail p%g), %d attempted, %d failed, num_cpu %d, GOMAXPROCS %d\n",
		d.Workload, d.Seed, d.Ops, d.TailPercentile, d.Attempted, d.Failed, d.Host.NumCPU, d.Host.GOMAXPROCS)
	names := make([]string, 0, len(d.Metrics))
	for name := range d.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := d.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, f := range d.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, msg := range d.Warnings {
		fmt.Fprintf(w, "  WARNING: %s\n", msg)
	}
}
