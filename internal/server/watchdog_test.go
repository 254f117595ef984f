package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"presp/internal/flow"
	"presp/internal/vivado"
)

// wedgedRunner simulates a stuck CAD run: it makes no progress and
// blocks until its context is cancelled — exactly what the watchdog
// exists to catch.
func wedgedRunner(runs *int, mu *sync.Mutex) func(context.Context, *compiledSpec, flow.Options) (*flow.Result, error) {
	return func(ctx context.Context, cs *compiledSpec, opt flow.Options) (*flow.Result, error) {
		mu.Lock()
		*runs++
		mu.Unlock()
		<-ctx.Done()
		return nil, ctx.Err()
	}
}

func TestWatchdogRequeuesThenPoisons(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	s := newTestServer(t, Config{Workers: 1, StallTimeout: 15 * time.Millisecond, StallRequeues: 1})
	s.runFlow = wedgedRunner(&runs, &mu)

	v, err := s.Submit("acme", Spec{Preset: "SOC_2"})
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, "acme", v.ID, StatePoisoned)
	if done.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 (one watchdog requeue)", done.Attempts)
	}
	if done.Error == "" {
		t.Error("poisoned job has no error")
	}
	mu.Lock()
	gotRuns := runs
	mu.Unlock()
	if gotRuns != 2 {
		t.Errorf("runs = %d, want 2 (original + one requeue)", gotRuns)
	}
	snap := s.cfg.Observer.Metrics().Snapshot()
	if snap.Counters["server_watchdog_stalls_total"] != 2 {
		t.Errorf("stalls = %d, want 2", snap.Counters["server_watchdog_stalls_total"])
	}
	if snap.Counters["server_jobs_poisoned"] != 1 {
		t.Errorf("poisoned = %d, want 1", snap.Counters["server_jobs_poisoned"])
	}

	// A poisoned job is terminal: cancelling it is a conflict, and the
	// flight is gone so an identical resubmission starts fresh.
	if _, err := s.Cancel("acme", v.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("cancel poisoned = %v, want ErrFinished", err)
	}
}

func TestWatchdogStallRequeueRecovers(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	st := &stubRunner{}
	s := newTestServer(t, Config{Workers: 1, StallTimeout: 15 * time.Millisecond, StallRequeues: 2})
	// First attempt wedges; the requeued attempt behaves.
	s.runFlow = func(ctx context.Context, cs *compiledSpec, opt flow.Options) (*flow.Result, error) {
		mu.Lock()
		runs++
		attempt := runs
		mu.Unlock()
		if attempt == 1 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return st.run(ctx, cs, opt)
	}

	v, err := s.Submit("acme", Spec{Preset: "SOC_2"})
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, "acme", v.ID, StateSucceeded)
	if done.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1", done.Attempts)
	}
	if done.Result == nil {
		t.Error("recovered run has no result")
	}
	snap := s.cfg.Observer.Metrics().Snapshot()
	if snap.Counters["server_jobs_poisoned"] != 0 {
		t.Errorf("poisoned = %d, want 0", snap.Counters["server_jobs_poisoned"])
	}
}

// TestHeartbeatsPreventStall: a run that is slow in wall time but keeps
// reporting virtual-time progress must never trip the watchdog — the
// two time bases are independent, and liveness is "heartbeats keep
// TestWatchdogOwnsHeartbeat: only the stall watchdog reads a flight's
// heartbeat, so a server without one hands the flow no Heartbeat hook
// and a finished scheduler job takes no server lock.
func TestWatchdogOwnsHeartbeat(t *testing.T) {
	for _, stall := range []time.Duration{0, time.Minute} {
		hooked := make(chan bool, 1)
		st := &stubRunner{}
		s := newTestServer(t, Config{Workers: 1, StallTimeout: stall})
		s.runFlow = func(ctx context.Context, cs *compiledSpec, opt flow.Options) (*flow.Result, error) {
			hooked <- opt.Heartbeat != nil
			return st.run(ctx, cs, opt)
		}
		v, err := s.Submit("acme", Spec{Preset: "SOC_2"})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, "acme", v.ID, StateSucceeded)
		if got, want := <-hooked, stall > 0; got != want {
			t.Errorf("StallTimeout %v: heartbeat installed = %v, want %v", stall, got, want)
		}
	}
}

// arriving", not "finishes quickly".
func TestHeartbeatsPreventStall(t *testing.T) {
	st := &stubRunner{}
	s := newTestServer(t, Config{Workers: 1, StallTimeout: 40 * time.Millisecond})
	s.runFlow = func(ctx context.Context, cs *compiledSpec, opt flow.Options) (*flow.Result, error) {
		for i := 1; i <= 20; i++ {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(8 * time.Millisecond):
			}
			if opt.Heartbeat != nil {
				// Virtual progress can be huge (modelled hours) while wall
				// progress is slow; only the arrival cadence matters.
				opt.Heartbeat(i, vivado.Minutes(i)*120)
			}
		}
		return st.run(ctx, cs, opt)
	}

	v, err := s.Submit("acme", Spec{Preset: "SOC_2"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, "acme", v.ID, StateSucceeded)
	snap := s.cfg.Observer.Metrics().Snapshot()
	if snap.Counters["server_watchdog_stalls_total"] != 0 {
		t.Errorf("stalls = %d, want 0: heartbeats should have kept the run alive",
			snap.Counters["server_watchdog_stalls_total"])
	}
}

func TestBreakerOpensAndSheds(t *testing.T) {
	boom := fmt.Errorf("synthetic failure")
	s := newTestServer(t, Config{Workers: 1, BreakerThreshold: 2, BreakerCooldown: time.Hour})
	s.runFlow = func(ctx context.Context, cs *compiledSpec, opt flow.Options) (*flow.Result, error) {
		return nil, boom
	}

	spec := Spec{Preset: "SOC_2", Tau: 5}
	for i := 0; i < 2; i++ {
		v, err := s.Submit("acme", spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, "acme", v.ID, StateFailed)
	}
	var open *CircuitOpenError
	if _, err := s.Submit("acme", spec); !errors.As(err, &open) {
		t.Fatalf("third submit = %v, want CircuitOpenError", err)
	}
	if open.Failures < 2 || open.RetryAfter <= 0 {
		t.Fatalf("bad shed error: %+v", open)
	}
	// The circuit is scoped per (tenant, spec): a different spec and a
	// different tenant both pass.
	if _, err := s.Submit("acme", Spec{Preset: "SOC_2", Tau: 9}); err != nil {
		t.Fatalf("different spec was shed: %v", err)
	}
	if _, err := s.Submit("beta", spec); err != nil {
		t.Fatalf("different tenant was shed: %v", err)
	}
	snap := s.cfg.Observer.Metrics().Snapshot()
	if snap.Counters["server_breaker_opens_total"] < 1 {
		t.Errorf("opens = %d, want >= 1", snap.Counters["server_breaker_opens_total"])
	}
	if snap.Counters["server_breaker_sheds_total"] != 1 {
		t.Errorf("sheds = %d, want 1", snap.Counters["server_breaker_sheds_total"])
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	var mu sync.Mutex
	failing := true
	st := &stubRunner{}
	s := newTestServer(t, Config{Workers: 1, BreakerThreshold: 2, BreakerCooldown: 10 * time.Millisecond})
	s.runFlow = func(ctx context.Context, cs *compiledSpec, opt flow.Options) (*flow.Result, error) {
		mu.Lock()
		f := failing
		mu.Unlock()
		if f {
			return nil, fmt.Errorf("still broken")
		}
		return st.run(ctx, cs, opt)
	}

	spec := Spec{Preset: "SOC_2", Tau: 5}
	for i := 0; i < 2; i++ {
		v, err := s.Submit("acme", spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, "acme", v.ID, StateFailed)
	}
	if _, err := s.Submit("acme", spec); err == nil {
		t.Fatal("open circuit admitted a submission")
	}

	// After the cooldown the half-open probe goes through; its success
	// closes the circuit entirely.
	mu.Lock()
	failing = false
	mu.Unlock()
	time.Sleep(25 * time.Millisecond)
	v, err := s.Submit("acme", spec)
	if err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	waitState(t, s, "acme", v.ID, StateSucceeded)
	v, err = s.Submit("acme", spec)
	if err != nil {
		t.Fatalf("submit after recovery rejected: %v", err)
	}
	waitState(t, s, "acme", v.ID, StateSucceeded)
}

func TestIdempotentReplay(t *testing.T) {
	st := &stubRunner{}
	s := newTestServer(t, Config{Workers: 1})
	s.runFlow = st.run

	spec := Spec{Preset: "SOC_2", Tau: 5}
	v1, replayed, err := s.SubmitIdempotent("acme", "build-7", spec)
	if err != nil || replayed {
		t.Fatalf("first submit = (%v, %v), want fresh admission", replayed, err)
	}
	waitState(t, s, "acme", v1.ID, StateSucceeded)

	// Replay after completion: same job back, no new work.
	v2, replayed, err := s.SubmitIdempotent("acme", "build-7", spec)
	if err != nil || !replayed || v2.ID != v1.ID {
		t.Fatalf("replay = (%+v, %v, %v), want %s replayed", v2, replayed, err, v1.ID)
	}
	if v2.State != StateSucceeded || v2.Result == nil {
		t.Fatalf("replayed job lost its result: %+v", v2)
	}
	if st.count() != 1 {
		t.Fatalf("runs = %d, want 1", st.count())
	}

	// Same key, different spec: a client bug, rejected loudly.
	var mism *IdempotencyMismatchError
	if _, _, err := s.SubmitIdempotent("acme", "build-7", Spec{Preset: "SOC_2", Tau: 9}); !errors.As(err, &mism) {
		t.Fatalf("mismatched reuse = %v, want IdempotencyMismatchError", err)
	}

	// Keys are tenant-scoped: another tenant may use the same string.
	v3, replayed, err := s.SubmitIdempotent("beta", "build-7", spec)
	if err != nil || replayed {
		t.Fatalf("other tenant's key = (%v, %v), want fresh admission", replayed, err)
	}
	waitState(t, s, "beta", v3.ID, StateSucceeded)

	snap := s.cfg.Observer.Metrics().Snapshot()
	if snap.Counters["server_idempotent_replays_total"] != 1 {
		t.Errorf("replays = %d, want 1", snap.Counters["server_idempotent_replays_total"])
	}
}

func TestCancelConflictVsNotFound(t *testing.T) {
	st := &stubRunner{}
	s := newTestServer(t, Config{Workers: 1})
	s.runFlow = st.run

	v, err := s.Submit("acme", Spec{Preset: "SOC_2"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, "acme", v.ID, StateSucceeded)

	// Cancelling a finished job is a conflict, not a missing resource...
	if _, err := s.Cancel("acme", v.ID); !errors.Is(err, ErrFinished) {
		t.Fatalf("cancel finished = %v, want ErrFinished", err)
	}
	// ...an unknown ID is still not found...
	if _, err := s.Cancel("acme", "j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown = %v, want ErrNotFound", err)
	}
	// ...and re-cancelling a cancelled job stays an idempotent no-op.
	gate := make(chan struct{})
	st.gate = gate
	defer close(gate)
	v2, err := s.Submit("acme", Spec{Preset: "SOC_2", Tau: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel("acme", v2.ID); err != nil {
		t.Fatalf("cancel live: %v", err)
	}
	again, err := s.Cancel("acme", v2.ID)
	if err != nil || again.State != StateCancelled {
		t.Fatalf("re-cancel = (%s, %v), want cancelled no-op", again.State, err)
	}
}
