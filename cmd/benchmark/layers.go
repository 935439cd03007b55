package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/trace"
)

// The benchmark attributes time to layers from outside the program: it
// times its own calls into public functions (graph loading, the matching
// function and inner bisector it hands to core.Multilevel and
// core.Compacted, the HTTP calls of the service client) and timestamps
// the level_done events its observer receives, which bound contraction
// and projection.

// span is one timed interval of a traced op, written one per line to
// trace-<workload>.jsonl. Every span of an op carries the op's index; a
// layer's self time is its span minus the spans naming it as parent.
type span struct {
	Op       int    `json:"op"`
	Name     string `json:"name"`
	Parent   string `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
}

// epoch anchors span timestamps: monotonic offsets from it, expressed as
// Unix nanoseconds.
var epoch = time.Now()

func stamp(t time.Time) int64 { return epoch.UnixNano() + t.Sub(epoch).Nanoseconds() }

// opTrace records the spans and layer counters of one traced op. A nil
// *opTrace records nothing, so untraced ops run the same code. An op runs
// on one goroutine, and so do the observer callbacks of its runs.
type opTrace struct {
	op     int
	spans  []span
	parent string // "op", or the run span while an algorithm runs
	alg    string // the op's algorithm (service ops)

	// Contraction runs from a matching's return to the coarsen level_done
	// that follows; projection from the coarse solve (one-level
	// compaction) or from a level_done (multilevel) to the next Refine or
	// uncoarsen level_done.
	mark        time.Time
	contracting bool
	projecting  bool
	multilevel  bool
	fineN       int // vertices offered to the last matching

	matchCalls, offered, matched int
	levels                       int
	shrink                       float64
	coarsestV, coarsestE         int
	passes, swaps                int
	scanned                      int64
	trials, accepted             int64
}

func newOpTrace(op int) *opTrace { return &opTrace{op: op, parent: "op"} }

// add records a finished span under the current parent.
func (t *opTrace) add(name string, from, to time.Time, vertices, edges int) {
	t.spans = append(t.spans, span{Op: t.op, Name: name, Parent: t.parent,
		StartNS: stamp(from), EndNS: stamp(to), Vertices: vertices, Edges: edges})
}

// begin opens a span; a contraction or projection interval still open
// ends where this layer starts.
func (t *opTrace) begin(name string, g *graph.Graph) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	n, m := dims(g)
	if t.contracting {
		t.add("coarsen.contract", t.mark, now, 0, 0)
		t.contracting = false
	}
	if t.projecting {
		t.add("coarsen.project", t.mark, now, n, m) // projected onto g
		t.projecting = false
	}
	t.spans = append(t.spans, span{Op: t.op, Name: name, Parent: t.parent, StartNS: stamp(now), Vertices: n, Edges: m})
	return len(t.spans) - 1
}

func (t *opTrace) end(i int) {
	if t != nil {
		t.spans[i].EndNS = stamp(time.Now())
	}
}

// setGraph records the graph a span worked on once it is known.
func (t *opTrace) setGraph(i int, g *graph.Graph) {
	if t != nil {
		t.spans[i].Vertices, t.spans[i].Edges = dims(g)
	}
}

// beginRun opens the span of one algorithm's best-of-k run; the layer
// spans of the run are its children.
func (t *opTrace) beginRun(alg string, g *graph.Graph) int {
	if t == nil {
		return -1
	}
	i := t.begin("run."+alg, g)
	t.parent = "run." + alg
	return i
}

func (t *opTrace) endRun(i int) {
	if t == nil {
		return
	}
	t.end(i)
	t.parent = "op"
	t.contracting, t.projecting = false, false
}

// root records the op's own span, the parent of every other.
func (t *opTrace) root(from, to time.Time) {
	if t != nil {
		t.spans = append(t.spans, span{Op: t.op, Name: "op", StartNS: stamp(from), EndNS: stamp(to)})
	}
}

func dims(g *graph.Graph) (int, int) {
	if g == nil {
		return 0, 0
	}
	return g.N(), g.M()
}

// match wraps the matching function Multilevel or Compacted calls.
func (t *opTrace) match(f coarsen.MatchFunc) coarsen.MatchFunc {
	return func(g *graph.Graph, r *rng.Rand) []int32 {
		i := t.begin("matching.match", g)
		mate := f(g, r)
		t.end(i)
		t.matchCalls++
		t.offered += g.N()
		t.matched += 2 * matching.Size(mate)
		t.fineN = g.N()
		t.mark, t.contracting = time.Now(), true
		return mate
	}
}

// Observe implements trace.Observer for the compaction pipeline's
// level_done events and the refiners' pass and temperature events.
func (t *opTrace) Observe(e trace.Event) {
	switch e.Type {
	case trace.TypePassDone:
		t.passes++
		t.swaps += e.Moves
		t.scanned += e.Scanned
	case trace.TypeTempDone:
		t.trials += e.Trials
		t.accepted += e.Accepted
	case trace.TypeLevelDone:
		now := time.Now()
		switch e.Phase {
		case "coarsen":
			if t.contracting {
				t.add("coarsen.contract", t.mark, now, e.Vertices, e.Edges)
				t.contracting = false
			}
			t.levels++
			if t.fineN > 0 {
				t.shrink += float64(e.Vertices) / float64(t.fineN)
			}
			if t.coarsestV == 0 || e.Vertices < t.coarsestV {
				t.coarsestV, t.coarsestE = e.Vertices, e.Edges
			}
		case "initial":
			t.mark, t.projecting = now, true
		case "uncoarsen":
			if t.projecting {
				t.add("coarsen.project", t.mark, now, e.Vertices, e.Edges)
				t.projecting = false
			}
			if t.multilevel {
				t.mark, t.projecting = now, true
			}
		}
	}
}

// opaque hides a composed bisector's interfaces from core.BestOf, which
// would otherwise give it a fresh workspace: the benchmark attaches the
// workspace itself so it can wrap that workspace's matching and close its
// pools after the op.
type opaque struct{ core.Bisector }

// timedRun times each start of a plain KL or SA run.
type timedRun struct {
	core.Bisector
	t    *opTrace
	name string
}

func (x timedRun) Bisect(g *graph.Graph, r *rng.Rand) (*partition.Bisection, error) {
	i := x.t.begin(x.name, g)
	b, err := x.Bisector.Bisect(g, r)
	x.t.end(i)
	return b, err
}

// timedInner times the inner bisector of Multilevel or Compacted: Bisect is
// the coarse solve, Refine one level's refinement.
type timedInner struct {
	core.RefinableBisector
	t         *opTrace
	layer     string // "kl" or "anneal"
	compacted bool   // one-level compaction projects right after the coarse solve
}

func (x timedInner) Bisect(g *graph.Graph, r *rng.Rand) (*partition.Bisection, error) {
	i := x.t.begin(x.layer+".coarse", g)
	b, err := x.RefinableBisector.Bisect(g, r)
	x.t.end(i)
	if x.compacted {
		x.t.mark, x.t.projecting = time.Now(), true
	}
	return b, err
}

func (x timedInner) Refine(b *partition.Bisection, r *rng.Rand) error {
	i := x.t.begin(x.layer+".refine", b.Graph())
	err := x.RefinableBisector.Refine(b, r)
	x.t.end(i)
	return err
}

// instrument returns base — a registry algorithm with its workspace and
// thread count attached — with t observing it and timing its layers. The
// instrumented bisector shares base's workspaces, so results are those of
// base.
func instrument(base core.Bisector, t *opTrace) (core.Bisector, error) {
	t.multilevel = false
	switch a := core.WithObserver(base, t).(type) {
	case core.KL:
		return timedRun{a, t, "kl.run"}, nil
	case core.SA:
		return timedRun{a, t, "anneal.run"}, nil
	case core.Compacted:
		a.Match = t.match(a.Workspace.RandomMaximal)
		a.Inner = timedInner{a.Inner, t, layerOf(a.Inner), true}
		return opaque{a}, nil
	case core.Multilevel:
		o := *a.Opts
		o.Match = t.match(o.Workspace.RandomMaximal)
		a.Opts = &o
		a.Inner = timedInner{a.Inner, t, layerOf(a.Inner), false}
		t.multilevel = true
		return opaque{a}, nil
	}
	return nil, fmt.Errorf("no instrumentation for %s", base.Name())
}

func layerOf(b core.RefinableBisector) string {
	if _, ok := b.(core.SA); ok {
		return "anneal"
	}
	return "kl"
}

// release closes the worker pools a parallel run attached to b's
// workspaces. Their parked goroutines would otherwise keep every op's
// arena alive.
func release(b core.Bisector) {
	switch a := b.(type) {
	case core.KL:
		if a.Opts.Workspace != nil {
			a.Opts.Workspace.Close()
		}
	case core.Compacted:
		if a.Workspace != nil {
			a.Workspace.Close()
		}
		release(a.Inner)
	case core.Multilevel:
		if a.Opts != nil && a.Opts.Workspace != nil {
			a.Opts.Workspace.Close()
		}
		release(a.Inner)
	}
}

// layerTimes sums the op's spans per layer name, adds the derived
// layers (finest-level refinement, per-algorithm service compute), and
// returns the time the top-level layers cover: the spans directly under
// the op or under one of its runs.
func (t *opTrace) layerTimes() (layers map[string]time.Duration, attributed time.Duration) {
	layers = map[string]time.Duration{}
	fine := map[string]int{} // run span → vertices of the op's graph
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, "run.") {
			fine[s.Name] = s.Vertices
		}
	}
	for _, s := range t.spans {
		d := time.Duration(s.EndNS - s.StartNS)
		if s.Name == "op" || strings.HasPrefix(s.Name, "run.") {
			continue
		}
		layers[s.Name] += d
		if s.Parent == "op" || strings.HasPrefix(s.Parent, "run.") {
			attributed += d
		}
		switch {
		case strings.HasSuffix(s.Name, ".refine") && s.Vertices == fine[s.Parent]:
			layers[s.Name+"_finest"] += d
		case s.Name == "service.compute":
			layers["service.compute."+strings.ReplaceAll(t.alg, "+", "-")] += d
		}
	}
	return layers, attributed
}

// perLayerShares are the layers reported as a share of op time: one
// metric per layer, named <layer>_frac. Most layers exist on some
// workloads only; a share of 0 says the workload does not run the layer.
var perLayerShares = []string{
	"graph.load", "matching.match", "coarsen.contract", "coarsen.project",
	"kl.run", "kl.coarse", "kl.refine", "kl.refine_finest",
	"anneal.run", "anneal.coarse", "anneal.refine",
	"service.upload", "service.submit", "service.poll", "service.queue_wait",
	"service.compute", "service.compute.ckl", "service.compute.mlkl",
	"service.compute.mlkl-spec", "service.result",
}

// perLayer computes the per-layer metrics from the traced replay touts of
// the untraced ops outs: layer shares and counters as per-op medians, and
// gens, the generator times of every set-up, as their median.
func perLayer(outs, touts []opOutcome, gens []float64) (map[string]metric, map[string]float64) {
	shares := map[string][]float64{}
	layerMS := map[string][]float64{}
	var unattributed, attributedFrac, tracedLat, untracedLat []float64
	var calls, levels, cv, ce, passes, swaps, scanned, trials []float64
	var offered, matched, contractions int
	var shrink float64
	var accepted, allTrials int64
	retries := 0
	for i, o := range touts {
		if o.failure != "" {
			continue // already counted as failed; it may have no op time
		}
		t := o.trace
		layers, attributed := t.layerTimes()
		wall := o.wall.Seconds()
		for name, d := range layers {
			shares[name] = append(shares[name], d.Seconds()/wall)
			layerMS[name] = append(layerMS[name], d.Seconds()*1e3)
		}
		unattributed = append(unattributed, (o.wall-attributed).Seconds()*1e3)
		attributedFrac = append(attributedFrac, attributed.Seconds()/wall)
		tracedLat = append(tracedLat, o.latency.Seconds())
		untracedLat = append(untracedLat, outs[i].latency.Seconds())
		if t.matchCalls > 0 {
			calls = append(calls, float64(t.matchCalls))
			levels = append(levels, float64(t.levels))
			cv = append(cv, float64(t.coarsestV))
			ce = append(ce, float64(t.coarsestE))
		}
		if t.passes > 0 {
			passes = append(passes, float64(t.passes))
			swaps = append(swaps, float64(t.swaps))
			scanned = append(scanned, float64(t.scanned))
		}
		if t.trials > 0 {
			trials = append(trials, float64(t.trials))
		}
		offered += t.offered
		matched += t.matched
		contractions += t.levels
		shrink += t.shrink
		accepted += t.accepted
		allTrials += t.trials
		retries += o.retries
	}
	m := map[string]metric{
		"gen.generate_ms":           {median(gens), "ms"},
		"core.unattributed_ms":      {median(unattributed), "ms"},
		"trace.attributed_frac":     {median(attributedFrac), "1"},
		"trace.overhead_frac":       {ratio(median(tracedLat), median(untracedLat)) - 1, "1"},
		"matching.calls":            {median(calls), "count"},
		"matching.matched_frac":     {ratio(float64(matched), float64(offered)), "1"},
		"coarsen.levels":            {median(levels), "count"},
		"coarsen.shrink":            {ratio(shrink, float64(contractions)), "1"},
		"coarsen.coarsest_vertices": {median(cv), "count"},
		"coarsen.coarsest_edges":    {median(ce), "count"},
		"kl.passes":                 {median(passes), "count"},
		"kl.swaps":                  {median(swaps), "count"},
		"kl.pairs_scanned":          {median(scanned), "count"},
		"anneal.trials":             {median(trials), "count"},
		"anneal.accept_ratio":       {ratio(float64(accepted), float64(allTrials)), "1"},
		"service.retries_429":       {float64(retries), "count"},
	}
	for _, name := range perLayerShares {
		m[name+"_frac"] = metric{median(shares[name]), "1"}
	}
	ms := map[string]float64{}
	for name, v := range layerMS {
		ms[name] = median(v)
	}
	return m, ms
}

// writeTrace writes every span of the traced ops, one JSON object a line.
func writeTrace(path string, touts []opOutcome) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, o := range touts {
		for _, s := range o.trace.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
