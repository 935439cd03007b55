package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func ev(i int) Event {
	return Event{Type: TypePassDone, Algo: "kl", Index: i, Cut: int64(100 - i)}
}

func TestRecorderUnbounded(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < 100; i++ {
		r.Observe(ev(i))
	}
	if r.Len() != 100 || r.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d, want 100, 0", r.Len(), r.Dropped())
	}
	events := r.Events()
	for i, e := range events {
		if e.Index != i {
			t.Fatalf("event %d has index %d", i, e.Index)
		}
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 20; i++ {
		r.Observe(ev(i))
	}
	if r.Len() != 8 {
		t.Fatalf("len=%d, want 8", r.Len())
	}
	if r.Dropped() != 12 {
		t.Fatalf("dropped=%d, want 12", r.Dropped())
	}
	events := r.Events()
	for i, e := range events {
		if want := 12 + i; e.Index != want {
			t.Fatalf("event %d has index %d, want %d (oldest-first after wrap)", i, e.Index, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("Reset did not clear the recorder")
	}
}

type observerFunc func(Event)

func (f observerFunc) Observe(e Event) { f(e) }

func TestWithStartAndLabel(t *testing.T) {
	var got []Event
	sink := observerFunc(func(e Event) { got = append(got, e) })
	WithStart(sink, 3).Observe(ev(0))
	WithLabel(sink, "b=16").Observe(ev(1))
	pre := ev(2)
	pre.Label = "keep"
	WithLabel(sink, "b=16").Observe(pre)
	if got[0].Start != 3 {
		t.Fatalf("WithStart: start=%d, want 3", got[0].Start)
	}
	if got[1].Label != "b=16" {
		t.Fatalf("WithLabel: label=%q, want b=16", got[1].Label)
	}
	if got[2].Label != "keep" {
		t.Fatalf("WithLabel overwrote an existing label: %q", got[2].Label)
	}
	if WithStart(nil, 1) != nil || WithLabel(nil, "x") != nil {
		t.Fatal("wrapping nil must stay nil (fast-path contract)")
	}
}

func TestJSONLDeterministicAndTimingGated(t *testing.T) {
	e := Event{Type: TypeTempDone, Algo: "sa", Index: 4, Cut: 42, BestCut: 40,
		Trials: 1000, Accepted: 250, AcceptRatio: 0.25, Temp: 1.5,
		ElapsedNS: 12345, AllocBytes: 678}
	var b1, b2 bytes.Buffer
	j1, j2 := NewJSONL(&b1), NewJSONL(&b2)
	j1.Observe(e)
	j2.Observe(e)
	if b1.String() != b2.String() {
		t.Fatal("identical events marshaled differently")
	}
	if strings.Contains(b1.String(), "elapsed_ns") || strings.Contains(b1.String(), "alloc_bytes") {
		t.Fatalf("timing fields leaked into default (deterministic) output: %s", b1.String())
	}
	var timed bytes.Buffer
	jt := NewJSONL(&timed)
	jt.Timing = true
	jt.Observe(e)
	if !strings.Contains(timed.String(), `"elapsed_ns":12345`) {
		t.Fatalf("Timing=true did not preserve elapsed_ns: %s", timed.String())
	}
	// Each line must be standalone JSON round-tripping to the same event.
	var back Event
	if err := json.Unmarshal(timed.Bytes(), &back); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if !reflect.DeepEqual(back, e) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, e)
	}
	if j1.Err() != nil {
		t.Fatalf("unexpected error: %v", j1.Err())
	}
}
