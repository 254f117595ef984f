package obs

import (
	"bytes"
	"sync"
	"testing"
)

// TestThreadNameOncePerLane: a lane keeps its first name, through any
// view of the tracer; later names for it record nothing.
func TestThreadNameOncePerLane(t *testing.T) {
	tr := NewTracer()
	scoped := tr.scoped(2, nil)
	tr.SetThreadName(2, "slot-1/worker-0")
	for i := 0; i < 3; i++ {
		scoped.SetThreadName(0, "worker-0")
		scoped.SetThreadName(1, "worker-1")
	}
	ev := tr.Events()
	if len(ev) != 2 || ev[0].TID != 2 || ev[0].Args["name"] != "slot-1/worker-0" ||
		ev[1].TID != 3 || ev[1].Args["name"] != "worker-1" {
		t.Fatalf("thread names %+v, want lane 2 slot-1/worker-0 and lane 3 worker-1 once each", ev)
	}
}

func TestTracerRoundTrip(t *testing.T) {
	tr := NewTracer()
	tr.SetProcessName("presp-flow")
	tr.SetThreadName(0, "worker-0")
	tr.Complete("job", "synth_leaf", 0, 0, 100, map[string]any{"sim_minutes": 12.5})
	tr.Complete("job", "impl_leaf", 0, 100, 50, nil)
	tr.InstantAt("retry", "impl_leaf#1", 0, 120, nil)
	tr.CounterSampleAt("flow_workers_busy", 10, map[string]float64{"busy": 2})

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	f, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	if len(f.TraceEvents) != 6 {
		t.Fatalf("round-tripped %d events, want 6", len(f.TraceEvents))
	}
	if got := CountSpans(f.TraceEvents, "job"); got != 2 {
		t.Fatalf("CountSpans(job) = %d, want 2", got)
	}
	if got := CountInstants(f.TraceEvents, "retry", "impl_leaf#1"); got != 1 {
		t.Fatalf("CountInstants(retry, impl_leaf#1) = %d, want 1", got)
	}
	if got := CountInstants(f.TraceEvents, "retry", ""); got != 1 {
		t.Fatalf("CountInstants(retry, any) = %d, want 1", got)
	}
	if got := CountInstants(f.TraceEvents, "job", ""); got != 0 {
		t.Fatalf("CountInstants(job, any) = %d, want 0 (spans are not instants)", got)
	}
	for _, ev := range f.TraceEvents {
		if ev.PID != tracePID {
			t.Fatalf("event %q pid = %d, want %d", ev.Name, ev.PID, tracePID)
		}
	}
	if err := CheckNesting(f.TraceEvents); err != nil {
		t.Fatalf("nesting: %v", err)
	}
}

func TestTracerEmptyWriteJSON(t *testing.T) {
	tr := NewTracer()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.TraceEvents) != 0 {
		t.Fatalf("empty tracer exported %d events", len(f.TraceEvents))
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ts := tr.Now()
				tr.Complete("job", "j", tid, ts, 1, nil)
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 400 {
		t.Fatalf("recorded %d events, want 400", tr.Len())
	}
}

func TestCheckNesting(t *testing.T) {
	ok := []Event{
		{Name: "outer", Phase: "X", TS: 0, Dur: 100, PID: 1, TID: 1},
		{Name: "inner", Phase: "X", TS: 10, Dur: 20, PID: 1, TID: 1},
		{Name: "inner2", Phase: "X", TS: 40, Dur: 60, PID: 1, TID: 1},
		{Name: "after", Phase: "X", TS: 100, Dur: 5, PID: 1, TID: 1},
		// Overlap on a different lane is fine.
		{Name: "other", Phase: "X", TS: 5, Dur: 500, PID: 1, TID: 2},
	}
	if err := CheckNesting(ok); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}

	bad := []Event{
		{Name: "a", Phase: "X", TS: 0, Dur: 100, PID: 1, TID: 1},
		{Name: "b", Phase: "X", TS: 50, Dur: 100, PID: 1, TID: 1},
	}
	if err := CheckNesting(bad); err == nil {
		t.Fatal("overlapping spans accepted")
	}

	// Non-"X" phases are ignored.
	mixed := []Event{
		{Name: "i", Phase: "i", TS: 0, PID: 1, TID: 1},
		{Name: "a", Phase: "X", TS: 0, Dur: 10, PID: 1, TID: 1},
	}
	if err := CheckNesting(mixed); err != nil {
		t.Fatalf("instants should not affect nesting: %v", err)
	}
}

func TestObserverAccessors(t *testing.T) {
	o := New()
	if o.Metrics() == nil || o.Tracer() == nil {
		t.Fatal("New() observer missing registry or tracer")
	}
	o.Metrics().Counter("c").Inc()
	if o.Metrics().Counter("c").Value() != 1 {
		t.Fatal("observer registry not shared across Metrics() calls")
	}
}

// TestScopedObserver: a scoped observer shares its parent's registry,
// event log and clock, shifts every lane it writes by its base, and
// adds its tags to span and instant args without touching the caller's
// map. Scopes compose, and a nil observer scopes to nil.
func TestScopedObserver(t *testing.T) {
	o := New()
	a := o.Scoped(4, map[string]any{"flight": "a"})
	b := a.Scoped(2, map[string]any{"sub": 1})
	a.Metrics().Counter("c").Inc()
	if o.Metrics().Counter("c").Value() != 1 {
		t.Fatal("scoped observer does not share the registry")
	}
	args := map[string]any{"stage": "synth"}
	a.Tracer().SetThreadName(0, "worker-0")
	a.Tracer().Complete("job", "synth_leaf", 1, 0, 10, args)
	b.Tracer().InstantAt("retry", "impl_leaf#1", 0, 5, nil)
	o.Tracer().Complete("job", "root", 1, 0, 10, nil)
	if len(args) != 1 {
		t.Fatalf("caller's args map was modified: %v", args)
	}
	ev := o.Tracer().Events()
	if len(ev) != 4 || a.Tracer().Len() != 4 {
		t.Fatalf("parent holds %d events, scope sees %d, want 4 in one log", len(ev), a.Tracer().Len())
	}
	if ev[0].TID != 4 || ev[1].TID != 5 || ev[2].TID != 6 || ev[3].TID != 1 {
		t.Fatalf("lanes %d %d %d %d, want 4 5 6 1", ev[0].TID, ev[1].TID, ev[2].TID, ev[3].TID)
	}
	if ev[1].Args["flight"] != "a" || ev[1].Args["stage"] != "synth" {
		t.Fatalf("scoped span args %v", ev[1].Args)
	}
	if ev[2].Args["flight"] != "a" || ev[2].Args["sub"] != 1 {
		t.Fatalf("nested scope instant args %v", ev[2].Args)
	}
	if ev[3].Args != nil {
		t.Fatalf("parent span picked up scope tags: %v", ev[3].Args)
	}
	var nilObs *Observer
	if nilObs.Scoped(1, nil) != nil {
		t.Fatal("nil observer scoped to non-nil")
	}
}
