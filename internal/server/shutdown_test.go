package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"presp/internal/flow"
	"presp/internal/leakcheck"
)

// TestGracefulDrain is the shutdown contract: the in-flight run
// finishes with its full result, the queued-but-unadmitted job gets a
// clean "server draining" rejection, and no goroutine survives.
func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	s := New(Config{Workers: 1})
	s.runFlow = func(ctx context.Context, cs *compiledSpec, opt flow.Options) (*flow.Result, error) {
		started <- struct{}{}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return flow.RunFlow(ctx, cs.spec.Flow, cs.design, opt)
	}

	inflight, err := s.Submit("acme", Spec{Preset: "SOC_2"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit("acme", Spec{Preset: "SOC_3"})
	if err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// The queued job is rejected immediately — before the in-flight run
	// is released — with the clean drain error.
	rej := waitState(t, s, "acme", queued.ID, StateRejected)
	if rej.Error != "server draining" {
		t.Errorf("queued job error = %q, want \"server draining\"", rej.Error)
	}
	// New submissions are refused while draining.
	if _, err := s.Submit("acme", Spec{Preset: "SOC_1"}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit during drain = %v, want ErrDraining", err)
	}

	close(gate) // let the in-flight run finish
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	done, err := s.Get("acme", inflight.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateSucceeded || done.Result == nil || done.Result.JobsExecuted == 0 {
		t.Fatalf("in-flight job after drain = %s (result %+v), want succeeded with jobs_executed > 0",
			done.State, done.Result)
	}
	if rej.Result != nil {
		t.Errorf("rejected job carries a result: %+v", rej.Result)
	}

	leakcheck.VerifyNone(t)
}

// TestShutdownIdempotent: calling Shutdown again (including after
// completion) is a no-op that still waits cleanly.
func TestShutdownIdempotent(t *testing.T) {
	s := New(Config{Workers: 2})
	s.runFlow = (&stubRunner{}).run
	for i := 0; i < 3; i++ {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatalf("shutdown #%d: %v", i+1, err)
		}
	}
	leakcheck.VerifyNone(t)
}

// TestShutdownDeadlineCancelsInFlight: when the grace period expires,
// in-flight runs are cancelled, Shutdown reports the context error, and
// the workers still exit.
func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	st := &stubRunner{started: make(chan int, 1), gate: make(chan struct{})}
	s := New(Config{Workers: 1})
	s.runFlow = st.run

	v, err := s.Submit("acme", Spec{Preset: "SOC_1"})
	if err != nil {
		t.Fatal(err)
	}
	<-st.started

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // grace period already over
	if err := s.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("shutdown = %v, want context.Canceled", err)
	}
	got, err := s.Get("acme", v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || got.Error != context.Canceled.Error() {
		t.Errorf("in-flight job after forced drain = %s/%q, want failed/context canceled", got.State, got.Error)
	}
	leakcheck.VerifyNone(t)
}
