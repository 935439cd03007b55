package anneal

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/trace"
)

// fastTraceOpts is a short schedule so trace tests stay quick.
func fastTraceOpts() Options {
	return Options{SizeFactor: 2, TempFactor: 0.8, FreezeLim: 2, MaxTemps: 40}
}

// TestObserverDoesNotChangeRun verifies the detach half of the
// observability contract for SA: the observer draws nothing from the
// random stream, so the annealing trajectory is bit-identical with and
// without one.
func TestObserverDoesNotChangeRun(t *testing.T) {
	g, err := gen.GNP(120, 0.05, rng.NewFib(11))
	if err != nil {
		t.Fatal(err)
	}
	plain, plainStats, err := Run(g, fastTraceOpts(), rng.NewFib(5))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	opts := fastTraceOpts()
	opts.Observer = rec
	traced, tracedStats, err := Run(g, opts, rng.NewFib(5))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cut() != traced.Cut() || plainStats != tracedStats {
		t.Fatalf("observer changed the run: cut %d vs %d, stats %+v vs %+v",
			plain.Cut(), traced.Cut(), plainStats, tracedStats)
	}
	for v := int32(0); int(v) < g.N(); v++ {
		if plain.Side(v) != traced.Side(v) {
			t.Fatalf("observer changed the bisection at vertex %d", v)
		}
	}
}

// TestTempDoneEventsMatchSchedule cross-checks temp_done events against
// the Stats: one per temperature, strictly decreasing temperature,
// acceptance ratios in [0,1] consistent with the counters, and a final
// run_done carrying the totals.
func TestTempDoneEventsMatchSchedule(t *testing.T) {
	g, err := gen.GNP(100, 0.06, rng.NewFib(13))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	opts := fastTraceOpts()
	opts.Observer = rec
	_, st, err := Run(g, opts, rng.NewFib(9))
	if err != nil {
		t.Fatal(err)
	}
	var temps int
	prevTemp := math.Inf(1)
	for _, e := range rec.Events() {
		if e.Type != trace.TypeTempDone {
			continue
		}
		if e.Index != temps {
			t.Fatalf("temp_done index %d out of order (want %d)", e.Index, temps)
		}
		if e.Temp >= prevTemp {
			t.Fatalf("temperature did not decrease: %g after %g", e.Temp, prevTemp)
		}
		prevTemp = e.Temp
		if e.Trials <= 0 || e.Accepted < 0 || e.Accepted > e.Trials {
			t.Fatalf("inconsistent counters: %+v", e)
		}
		if want := float64(e.Accepted) / float64(e.Trials); math.Abs(e.AcceptRatio-want) > 1e-12 {
			t.Fatalf("accept_ratio %g, want %g", e.AcceptRatio, want)
		}
		temps++
	}
	if temps != st.Temperatures {
		t.Fatalf("saw %d temp_done events, Stats.Temperatures = %d", temps, st.Temperatures)
	}
	events := rec.Events()
	last := events[len(events)-1]
	if last.Type != trace.TypeRunDone {
		t.Fatalf("last event is %s, want run_done", last.Type)
	}
	if last.Trials != st.Trials || last.Accepted != st.Accepted || last.Cut != st.FinalCut || last.Index != st.Temperatures {
		t.Fatalf("run_done %+v disagrees with stats %+v", last, st)
	}
	if last.Temp != st.FinalTemp {
		t.Fatalf("run_done temp %g, want final temp %g", last.Temp, st.FinalTemp)
	}
}

// TestAcceptanceRatioDecays checks the qualitative shape the freezing
// criterion relies on (and the trace exposes): the mean acceptance
// ratio over the last quarter of the schedule is below the mean over
// the first quarter.
func TestAcceptanceRatioDecays(t *testing.T) {
	g, err := gen.GNP(150, 0.05, rng.NewFib(17))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	opts := fastTraceOpts()
	opts.Observer = rec
	if _, _, err := Run(g, opts, rng.NewFib(21)); err != nil {
		t.Fatal(err)
	}
	var ratios []float64
	for _, e := range rec.Events() {
		if e.Type == trace.TypeTempDone {
			ratios = append(ratios, e.AcceptRatio)
		}
	}
	if len(ratios) < 4 {
		t.Skipf("schedule too short to compare quartiles (%d temperatures)", len(ratios))
	}
	q := len(ratios) / 4
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if early, late := mean(ratios[:q]), mean(ratios[len(ratios)-q:]); late >= early {
		t.Fatalf("acceptance ratio did not decay toward freezing: early %.3f, late %.3f", early, late)
	}
}
