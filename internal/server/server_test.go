package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"presp/internal/flow"
	"presp/internal/obs"
)

// newTestServer builds a server and guarantees it drains on cleanup, so
// the package-level leakcheck sees no straggling workers.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Observer == nil {
		cfg.Observer = obs.New()
	}
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// stubRunner replaces the flow engine behind the runFlow seam: runs are
// counted, optionally announced on started, optionally held at gate
// (respecting cancellation), and finish with a fixed result or error.
type stubRunner struct {
	mu      sync.Mutex
	runs    int
	started chan int      // receives the spec's Tau when a run begins
	gate    chan struct{} // when non-nil, runs block here until closed
	err     error
}

func (r *stubRunner) run(ctx context.Context, cs *compiledSpec, _ flow.Options) (*flow.Result, error) {
	r.mu.Lock()
	r.runs++
	r.mu.Unlock()
	if r.started != nil {
		select {
		case r.started <- cs.spec.Tau:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if r.gate != nil {
		select {
		case <-r.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return &flow.Result{
		Design:     cs.design,
		SynthWall:  30,
		PRWall:     12,
		BitgenWall: 3,
		Total:      42,
	}, nil
}

func (r *stubRunner) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, s *Server, tenant, id string, want JobState) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := s.Get(tenant, id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if v.State == want {
			return v
		}
		if v.State.terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: state %s, want %s (error %q)", id, v.State, want, v.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	st := &stubRunner{}
	s := newTestServer(t, Config{Workers: 1})
	s.runFlow = st.run

	v, err := s.Submit("acme", Spec{Preset: "SOC_2"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if v.ID == "" || v.Tenant != "acme" {
		t.Fatalf("bad submit view: %+v", v)
	}
	done := waitState(t, s, "acme", v.ID, StateSucceeded)
	if done.Result == nil {
		t.Fatal("succeeded job has no result")
	}
	if done.Result.TotalMin != 42 {
		t.Errorf("TotalMin = %v, want 42", done.Result.TotalMin)
	}
	if done.Result.Flow != "presp" {
		t.Errorf("Flow = %q, want presp (normalized default)", done.Result.Flow)
	}
	if done.SubmittedAt == "" || done.StartedAt == "" || done.FinishedAt == "" {
		t.Errorf("missing timestamps: %+v", done)
	}
	if got := st.count(); got != 1 {
		t.Errorf("runs = %d, want 1", got)
	}
	jobs := s.List("acme")
	if len(jobs) != 1 || jobs[0].ID != v.ID {
		t.Errorf("List = %+v, want the one job", jobs)
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.runFlow = (&stubRunner{}).run

	cases := []struct {
		name string
		spec Spec
	}{
		{"missing preset", Spec{}},
		{"unknown preset", Spec{Preset: "SOC_99"}},
		{"unknown flow", Spec{Preset: "SOC_1", Flow: "quantum"}},
		{"unknown strategy", Spec{Preset: "SOC_1", Strategy: "yolo"}},
		{"negative retries", Spec{Preset: "SOC_1", Retries: -1}},
		{"negative tau", Spec{Preset: "SOC_1", Tau: -2}},
		{"unknown policy", Spec{Preset: "SOC_1", ErrorPolicy: "ignore"}},
		{"bad fault plan", Spec{Preset: "SOC_1", Faults: "lol=what"}},
		{"runtime fault op", Spec{Preset: "SOC_1", Faults: "seed=1,synth=0.5,icap=1.0"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.Submit("acme", tc.spec)
			var bad *BadSpecError
			if !errors.As(err, &bad) {
				t.Fatalf("Submit(%+v) = %v, want *BadSpecError", tc.spec, err)
			}
		})
	}
	if st := s.Snapshot(); st.Jobs != 0 {
		t.Errorf("rejected specs created %d job records, want 0", st.Jobs)
	}
}

func TestBackpressureQueueFull(t *testing.T) {
	st := &stubRunner{started: make(chan int, 8), gate: make(chan struct{})}
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	s.runFlow = st.run

	// Occupy the single worker, then fill the two queue slots with
	// distinct specs (Tau changes the single-flight key).
	if _, err := s.Submit("acme", Spec{Preset: "SOC_1", Tau: 1}); err != nil {
		t.Fatalf("submit filler: %v", err)
	}
	<-st.started // filler is running, not queued
	for tau := 2; tau <= 3; tau++ {
		if _, err := s.Submit("acme", Spec{Preset: "SOC_1", Tau: tau}); err != nil {
			t.Fatalf("submit queued tau=%d: %v", tau, err)
		}
	}

	_, err := s.Submit("acme", Spec{Preset: "SOC_1", Tau: 4})
	var qf *QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("overflow submit = %v, want *QueueFullError", err)
	}
	if qf.Depth != 2 {
		t.Errorf("QueueFullError.Depth = %d, want 2", qf.Depth)
	}
	if got := s.mQueueRejects.Value(); got != 1 {
		t.Errorf("admission reject counter = %d, want 1", got)
	}

	// An identical resubmission of a queued spec must dedup, not 429:
	// single-flight subscribers ride the existing slot.
	dup, err := s.Submit("acme", Spec{Preset: "SOC_1", Tau: 2})
	if err != nil {
		t.Fatalf("dedup submit while full: %v", err)
	}
	if !dup.Deduplicated {
		t.Error("identical spec at full queue was not deduplicated")
	}

	close(st.gate)
	for tau := 2; tau <= 3; tau++ {
		<-st.started
	}
	// All admitted work finishes and the queue-depth gauge returns to 0.
	deadline := time.Now().Add(10 * time.Second)
	for s.Snapshot().Queued != 0 || s.Snapshot().Running != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: %+v", s.Snapshot())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.gQueueDepth.Value(); got != 0 {
		t.Errorf("queue depth gauge = %v after drain, want 0", got)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	st := &stubRunner{started: make(chan int, 8), gate: make(chan struct{})}
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 16})
	s.runFlow = st.run

	// Hold the worker, then queue tenant A three deep and tenant B one
	// deep. Round-robin must interleave B's job after A's first.
	if _, err := s.Submit("a", Spec{Preset: "SOC_1", Tau: 1}); err != nil {
		t.Fatal(err)
	}
	<-st.started
	for _, sub := range []struct {
		tenant string
		tau    int
	}{{"a", 2}, {"a", 3}, {"a", 4}, {"b", 5}} {
		if _, err := s.Submit(sub.tenant, Spec{Preset: "SOC_1", Tau: sub.tau}); err != nil {
			t.Fatalf("submit %s tau=%d: %v", sub.tenant, sub.tau, err)
		}
	}

	close(st.gate)
	var order []int
	for i := 0; i < 4; i++ {
		order = append(order, <-st.started)
	}
	want := []int{2, 5, 3, 4} // a, b, a, a — not a, a, a, b
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v (tenant b starved)", order, want)
		}
	}
}

func TestCancelQueuedJobFreesSlot(t *testing.T) {
	st := &stubRunner{started: make(chan int, 8), gate: make(chan struct{})}
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	s.runFlow = st.run

	if _, err := s.Submit("acme", Spec{Preset: "SOC_1", Tau: 1}); err != nil {
		t.Fatal(err)
	}
	<-st.started
	queued, err := s.Submit("acme", Spec{Preset: "SOC_1", Tau: 2})
	if err != nil {
		t.Fatal(err)
	}

	v, err := s.Cancel("acme", queued.ID)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if v.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", v.State)
	}
	if st := s.Snapshot(); st.Queued != 0 {
		t.Errorf("queued = %d after cancel, want 0", st.Queued)
	}
	// The freed slot admits new work instead of 429ing.
	if _, err := s.Submit("acme", Spec{Preset: "SOC_1", Tau: 3}); err != nil {
		t.Fatalf("submit into freed slot: %v", err)
	}
	close(st.gate)
	<-st.started // tau=3 runs; tau=2 must never start
	if got := st.count(); got != 2 {
		t.Errorf("runs = %d, want 2 (cancelled job must not run)", got)
	}
}

func TestCancelRunningJobStopsRun(t *testing.T) {
	st := &stubRunner{started: make(chan int, 1), gate: make(chan struct{})}
	s := newTestServer(t, Config{Workers: 1})
	s.runFlow = st.run

	v, err := s.Submit("acme", Spec{Preset: "SOC_1"})
	if err != nil {
		t.Fatal(err)
	}
	<-st.started
	if _, err := s.Cancel("acme", v.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	// The run's context is cancelled (last subscriber left): the stub
	// returns ctx.Err and the worker moves on, but the job keeps its
	// cancelled state rather than flipping to failed.
	deadline := time.Now().Add(10 * time.Second)
	for s.Snapshot().Running != 0 {
		if time.Now().After(deadline) {
			t.Fatal("run never stopped after cancel")
		}
		time.Sleep(2 * time.Millisecond)
	}
	got, err := s.Get("acme", v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled || got.Error != "" {
		t.Errorf("job after cancelled run = %s/%q, want cancelled with no error", got.State, got.Error)
	}

	// Cancelling a terminal job is a harmless no-op.
	again, err := s.Cancel("acme", v.ID)
	if err != nil || again.State != StateCancelled {
		t.Errorf("re-cancel = %+v, %v; want cancelled, nil", again, err)
	}
	if got := s.mCancelled.Value(); got != 1 {
		t.Errorf("cancelled counter = %d, want 1 (no double count)", got)
	}
}

// TestFinishedJobsHoldNoGroup pins that a job lets go of its flight
// group once it is terminal: the group holds the compiled spec and its
// elaborated design, which a retained job would otherwise keep alive
// for as long as the server remembers it.
func TestFinishedJobsHoldNoGroup(t *testing.T) {
	st := &stubRunner{started: make(chan int, 8), gate: make(chan struct{})}
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	s.runFlow = st.run

	running, err := s.Submit("acme", Spec{Preset: "SOC_1", Tau: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-st.started
	queued, err := s.Submit("acme", Spec{Preset: "SOC_1", Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel("acme", queued.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	close(st.gate)
	waitState(t, s, "acme", running.ID, StateSucceeded)

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range []string{running.ID, queued.ID} {
		j := s.jobs[id]
		if j.group != nil {
			t.Errorf("%s job %s still holds its flight group", j.State, id)
		}
	}
}

func TestCancelLeaderKeepsFollowerRunning(t *testing.T) {
	st := &stubRunner{started: make(chan int, 1), gate: make(chan struct{})}
	s := newTestServer(t, Config{Workers: 1})
	s.runFlow = st.run

	leader, err := s.Submit("acme", Spec{Preset: "SOC_2"})
	if err != nil {
		t.Fatal(err)
	}
	<-st.started
	follower, err := s.Submit("acme", Spec{Preset: "SOC_2"})
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Deduplicated || follower.State != StateRunning {
		t.Fatalf("follower = %+v, want deduplicated and running", follower)
	}

	if _, err := s.Cancel("acme", leader.ID); err != nil {
		t.Fatal(err)
	}
	close(st.gate) // the run survives: the follower still wants it
	done := waitState(t, s, "acme", follower.ID, StateSucceeded)
	if done.Result == nil {
		t.Fatal("follower lost the shared result")
	}
	if got, _ := s.Get("acme", leader.ID); got.State != StateCancelled {
		t.Errorf("leader state = %s, want cancelled", got.State)
	}
	if got := st.count(); got != 1 {
		t.Errorf("runs = %d, want 1", got)
	}
}

func TestTenantIsolation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.runFlow = (&stubRunner{}).run

	v, err := s.Submit("acme", Spec{Preset: "SOC_1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("rival", v.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("cross-tenant Get = %v, want ErrNotFound", err)
	}
	if _, err := s.Cancel("rival", v.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("cross-tenant Cancel = %v, want ErrNotFound", err)
	}
	if jobs := s.List("rival"); len(jobs) != 0 {
		t.Errorf("cross-tenant List leaked %d jobs", len(jobs))
	}
	if _, err := s.Get("acme", "j999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id Get = %v, want ErrNotFound", err)
	}
}
