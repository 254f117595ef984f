package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Event is one Chrome trace-event. The JSON field names follow the
// trace-event format so the exported file loads directly in Perfetto
// or chrome://tracing. Timestamps and durations are microseconds; the
// flow engine stamps wall time relative to the tracer's epoch, the
// runtime stamps virtual simulation time — either way the timeline is
// self-consistent within one trace.
type Event struct {
	// Name and Cat label the event (job ID and stage for flow spans).
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	// Phase is the trace-event type: "X" complete span, "i" instant,
	// "C" counter sample, "M" metadata.
	Phase string `json:"ph"`
	// TS is the start timestamp in microseconds; Dur is the span length
	// ("X" events only).
	TS  int64 `json:"ts"`
	Dur int64 `json:"dur,omitempty"`
	// PID and TID select the process/thread lane. Workers and tiles map
	// to TIDs so spans on one lane nest.
	PID int `json:"pid"`
	TID int `json:"tid"`
	// Scope is "t" for thread-scoped instants.
	Scope string `json:"s,omitempty"`
	// Args carries event details (sim_minutes, attempts, bytes, ...).
	Args map[string]any `json:"args,omitempty"`
}

// Tracer collects trace events. It is safe for concurrent use; every
// method no-ops on a nil receiver, so instrumented code can hold a nil
// tracer and emit unconditionally.
//
// A tracer may be a scoped view of another (see Observer.Scoped): it
// writes into the same event log on the same clock, shifts every lane
// it is given by its lane base and adds its tags to the args of every
// span and instant.
type Tracer struct {
	log      *traceLog
	laneBase int
	tags     map[string]any
}

// traceLog is the event log and clock every view of a tracer shares.
type traceLog struct {
	mu     sync.Mutex
	events []Event
	named  map[int]bool // lanes that carry a thread_name event
	epoch  time.Time
}

// tracePID is the single process lane a tracer emits into.
const tracePID = 1

// NewTracer returns a tracer whose Now clock starts at zero.
func NewTracer() *Tracer {
	return &Tracer{log: &traceLog{epoch: time.Now()}}
}

// scoped returns a view of t whose lanes start at laneBase past t's and
// whose tags extend t's (nil for a nil tracer).
func (t *Tracer) scoped(laneBase int, tags map[string]any) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{log: t.log, laneBase: t.laneBase + laneBase, tags: t.tagged(tags)}
}

// tagged returns args extended by the tracer's tags; args keep their
// own value for a key both hold.
func (t *Tracer) tagged(args map[string]any) map[string]any {
	if len(t.tags) == 0 {
		return args
	}
	out := make(map[string]any, len(t.tags)+len(args))
	for k, v := range t.tags {
		out[k] = v
	}
	for k, v := range args {
		out[k] = v
	}
	return out
}

// Now returns the wall-clock microseconds since the tracer was created
// (zero for a nil tracer) — the timestamp base for wall-time spans.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.log.epoch).Microseconds()
}

func (t *Tracer) emit(ev Event) {
	if t == nil {
		return
	}
	ev.PID = tracePID
	t.log.mu.Lock()
	t.log.events = append(t.log.events, ev)
	t.log.mu.Unlock()
}

// Complete records a complete span ("X") on lane tid covering
// [ts, ts+dur] microseconds. Negative durations are clamped to zero.
func (t *Tracer) Complete(cat, name string, tid int, ts, dur int64, args map[string]any) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.emit(Event{Name: name, Cat: cat, Phase: "X", TS: ts, Dur: dur, TID: t.laneBase + tid, Args: t.tagged(args)})
}

// Instant records a thread-scoped instant event at Now().
func (t *Tracer) Instant(cat, name string, tid int, args map[string]any) {
	if t == nil {
		return
	}
	t.InstantAt(cat, name, tid, t.Now(), args)
}

// InstantAt records a thread-scoped instant event at an explicit
// timestamp (virtual-time emitters compute their own).
func (t *Tracer) InstantAt(cat, name string, tid int, ts int64, args map[string]any) {
	if t == nil {
		return
	}
	t.emit(Event{Name: name, Cat: cat, Phase: "i", TS: ts, TID: t.laneBase + tid, Scope: "t", Args: t.tagged(args)})
}

// CounterSampleAt records a counter sample ("C"): each key of values is
// one series under the event name (Perfetto renders them as a stacked
// chart).
func (t *Tracer) CounterSampleAt(name string, ts int64, values map[string]float64) {
	if t == nil || len(values) == 0 {
		return
	}
	args := make(map[string]any, len(values))
	for k, v := range values {
		args[k] = v
	}
	t.emit(Event{Name: name, Phase: "C", TS: ts, Args: args})
}

// SetProcessName labels the trace's process lane.
func (t *Tracer) SetProcessName(name string) {
	if t == nil {
		return
	}
	t.emit(Event{Name: "process_name", Phase: "M", Args: map[string]any{"name": name}})
}

// SetThreadName labels lane tid (worker index, tile name). A lane keeps
// the first name it is given and later calls for it record nothing, so
// a component that names its lanes on every run (the flow scheduler)
// labels each lane once, and an owner that names a lane block before
// handing it out (the server's flight slots) keeps its names.
func (t *Tracer) SetThreadName(tid int, name string) {
	if t == nil {
		return
	}
	tid += t.laneBase
	t.log.mu.Lock()
	defer t.log.mu.Unlock()
	if t.log.named[tid] {
		return
	}
	if t.log.named == nil {
		t.log.named = make(map[int]bool)
	}
	t.log.named[tid] = true
	t.log.events = append(t.log.events, Event{Name: "thread_name", Phase: "M", PID: tracePID, TID: tid, Args: map[string]any{"name": name}})
}

// Events returns a copy of everything recorded so far.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.log.mu.Lock()
	defer t.log.mu.Unlock()
	return append([]Event(nil), t.log.events...)
}

// Len returns the recorded event count.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.log.mu.Lock()
	defer t.log.mu.Unlock()
	return len(t.log.events)
}

// TraceFile is the JSON object WriteJSON emits — the Chrome
// trace-event container format.
type TraceFile struct {
	DisplayTimeUnit string  `json:"displayTimeUnit"`
	TraceEvents     []Event `json:"traceEvents"`
}

// WriteJSON renders the trace in Chrome trace-event JSON object
// format, loadable by Perfetto and chrome://tracing.
func (t *Tracer) WriteJSON(w io.Writer) error {
	f := TraceFile{DisplayTimeUnit: "ms", TraceEvents: t.Events()}
	if f.TraceEvents == nil {
		f.TraceEvents = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// ParseTrace parses a file WriteJSON wrote (for tests and tooling).
func ParseTrace(data []byte) (*TraceFile, error) {
	var f TraceFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("obs: invalid trace JSON: %w", err)
	}
	return &f, nil
}

// CountSpans counts the complete ("X") events of one category — the
// per-job span count the CLI acceptance check compares to Result.Jobs.
func CountSpans(events []Event, cat string) int {
	n := 0
	for _, ev := range events {
		if ev.Phase == "X" && ev.Cat == cat {
			n++
		}
	}
	return n
}

// CountInstants counts the instant ("i") events of one category whose
// name matches (an empty name matches any). Recovery, stall-detection
// and breaker-open markers are instants; tests assert them with this
// the same way CountSpans serves the per-job spans.
func CountInstants(events []Event, cat, name string) int {
	n := 0
	for _, ev := range events {
		if ev.Phase == "i" && ev.Cat == cat && (name == "" || ev.Name == name) {
			n++
		}
	}
	return n
}

// CheckNesting verifies the trace's complete spans form a proper stack
// on every (pid, tid) lane: two spans on one lane either nest fully or
// do not overlap at all. Chrome's renderer assumes this; a violation
// means an instrumentation site emitted overlapping spans on a shared
// lane.
func CheckNesting(events []Event) error {
	type lane struct{ pid, tid int }
	spans := make(map[lane][]Event)
	for _, ev := range events {
		if ev.Phase != "X" {
			continue
		}
		k := lane{ev.PID, ev.TID}
		spans[k] = append(spans[k], ev)
	}
	for k, evs := range spans {
		// Sort by start ascending; ties put the longer (outer) span
		// first so it is pushed before its same-start children.
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].TS != evs[j].TS {
				return evs[i].TS < evs[j].TS
			}
			return evs[i].Dur > evs[j].Dur
		})
		var stack []Event
		for _, ev := range evs {
			for len(stack) > 0 && stack[len(stack)-1].TS+stack[len(stack)-1].Dur <= ev.TS {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				if ev.TS+ev.Dur > top.TS+top.Dur {
					return fmt.Errorf("obs: span %q [%d,%d] overlaps %q [%d,%d] on pid %d tid %d without nesting",
						ev.Name, ev.TS, ev.TS+ev.Dur, top.Name, top.TS, top.TS+top.Dur, k.pid, k.tid)
				}
			}
			stack = append(stack, ev)
		}
	}
	return nil
}
