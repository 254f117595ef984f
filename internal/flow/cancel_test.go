// Cancellation and resume suite: a flow killed at any point must leak
// no goroutines, leave the checkpoint cache and its disk tier
// consistent, and a rerun over the same cache directory must reach a
// byte-identical result.
package flow

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"presp/internal/accel"
	"presp/internal/faultinject"
	"presp/internal/leakcheck"
	"presp/internal/obs"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

// TestSchedulerRandomCancelPoints: across random DAGs, worker counts
// and cancellation points, the scheduler never violates dependency
// order, never runs a job twice, always accounts every job as executed
// or cancelled, and always drains its pool.
func TestSchedulerRandomCancelPoints(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		g, rec, _, _ := randomDAG(rng, n, 0.1)
		k := rng.Intn(n + 1) // cancel after the k-th successful job

		ctx, cancel := context.WithCancel(context.Background())
		stats, _, err := collect(ctx, g, 1+rng.Intn(8), cancelAfter(k, cancel))
		cancel()

		if rec.violation != "" {
			t.Fatalf("seed=%d: %s", seed, rec.violation)
		}
		for id, count := range rec.runs {
			if count > 1 {
				t.Fatalf("seed=%d: job %s ran %d times", seed, id, count)
			}
		}
		if got := stats.Executed() + stats.Cancelled; got != n {
			t.Fatalf("seed=%d: executed %d + cancelled %d != %d jobs", seed, stats.Executed(), stats.Cancelled, n)
		}
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("seed=%d: unexpected execution error: %v", seed, err)
		}
	}
	leakcheck.VerifyNone(t)
}

// cancelAfter returns a heartbeat that fires cancel once k jobs have
// completed — a deterministic stand-in for kill -9 at an arbitrary
// point of the run.
func cancelAfter(k int, cancel context.CancelFunc) func(int, vivado.Minutes) {
	return func(completed int, _ vivado.Minutes) {
		if completed == k {
			cancel()
		}
	}
}

// synthCompleted counts the synthesis jobs a traced run finished: its
// "job" spans of stage synth that carry no error.
func synthCompleted(tr *obs.Tracer) int {
	n := 0
	for _, ev := range tr.Events() {
		if ev.Phase == "X" && ev.Cat == "job" && ev.Args["stage"] == StageSynth.String() && ev.Args["error"] == nil {
			n++
		}
	}
	return n
}

// TestFlowKillAndResume: interrupt a PR-ESP run after every possible
// number of completed jobs, then rerun it with a fresh in-memory cache
// over the same disk tier. The rerun must complete byte-identical to an
// uninterrupted run and hit the cache at least once per synthesis that
// completed before the kill: each checkpoint reaches the disk tier
// before its job completes. The second leg runs under a seeded synth
// fault plan with retries — the checkpoint cache stays on under faults,
// so synthesis reuse survives there too.
func TestFlowKillAndResume(t *testing.T) {
	cfg := socgen.SOC1()
	plan, err := faultinject.ParsePlan("seed=5,synth=0.4")
	if err != nil {
		t.Fatal(err)
	}
	legs := []struct {
		name string
		opt  Options
	}{
		{"clean", Options{Compress: true, Workers: 4}},
		{"synth-faults", Options{Compress: true, Workers: 4, FaultPlan: plan, MaxJobRetries: 4}},
	}
	for _, leg := range legs {
		ref, err := RunPRESP(context.Background(), elaborate(t, cfg), leg.opt)
		if err != nil {
			t.Fatalf("%s: reference run: %v", leg.name, err)
		}
		if leg.opt.FaultPlan != nil && ref.Jobs.Retries == 0 {
			t.Fatalf("%s: the fault plan injected nothing", leg.name)
		}
		refSig := resultSignature(ref)
		totalJobs := ref.Jobs.Executed()

		for k := 1; k <= totalJobs+1; k++ {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			opt := leg.opt
			opt.Heartbeat = cancelAfter(k, cancel)
			opt.Observer = obs.New()
			opt.Cache = diskCache(t, dir, opt.Observer)
			_, runErr := RunPRESP(ctx, elaborate(t, cfg), opt)
			cancel()
			if runErr == nil {
				// Cancellation landed after the last job: the run finished.
				continue
			}
			if !errors.Is(runErr, context.Canceled) {
				t.Fatalf("%s k=%d: interrupted run failed with %v, want context.Canceled", leg.name, k, runErr)
			}
			synthDone := synthCompleted(opt.Observer.Tracer())

			opt = leg.opt
			opt.Cache = diskCache(t, dir, nil)
			res, err := RunPRESP(context.Background(), elaborate(t, cfg), opt)
			if err != nil {
				t.Fatalf("%s k=%d: rerun failed: %v", leg.name, k, err)
			}
			if sig := resultSignature(res); sig != refSig {
				t.Fatalf("%s k=%d: rerun differs from uninterrupted run:\n--- rerun ---\n%s--- reference ---\n%s", leg.name, k, sig, refSig)
			}
			if res.Jobs.CacheHits < synthDone {
				t.Fatalf("%s k=%d: %d cache hits on rerun, want >= %d syntheses completed before the kill",
					leg.name, k, res.Jobs.CacheHits, synthDone)
			}
		}
	}
	leakcheck.VerifyNone(t)
}

// TestFlowCancelLeavesCacheConsistent: a shared cache that lived
// through a cancelled run still serves a clean run to the reference
// result.
func TestFlowCancelLeavesCacheConsistent(t *testing.T) {
	cfg := socgen.SOC2()
	ref, err := RunPRESP(context.Background(), elaborate(t, cfg), Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	refSig := resultSignature(ref)

	cache := vivado.NewCheckpointCache()
	for k := 1; k <= 4; k++ {
		ctx, cancel := context.WithCancel(context.Background())
		_, runErr := RunPRESP(ctx, elaborate(t, cfg), Options{
			Compress: true, Cache: cache, Heartbeat: cancelAfter(k, cancel), Workers: runtime.NumCPU(),
		})
		cancel()
		if runErr == nil {
			continue
		}
		res, err := RunPRESP(context.Background(), elaborate(t, cfg), Options{Compress: true, Cache: cache})
		if err != nil {
			t.Fatalf("k=%d: clean run after cancellation failed: %v", k, err)
		}
		if sig := resultSignature(res); sig != refSig {
			t.Fatalf("k=%d: cache corrupted by cancellation: result differs", k)
		}
	}
	leakcheck.VerifyNone(t)
}

// TestFlowTimeout: an expired context deadline — the one run bound —
// surfaces as context.DeadlineExceeded before (or during) execution, for
// every entry point.
func TestFlowTimeout(t *testing.T) {
	runs := []struct {
		name string
		run  func(ctx context.Context, d *socgen.Design, opt Options) (*Result, error)
	}{
		{"presp", RunPRESP},
		{"standard-dfx", RunStandardDFX},
		{"monolithic", RunMonolithic},
	}
	for _, r := range runs {
		ctx, cancel := context.WithTimeout(context.Background(), 1)
		_, err := r.run(ctx, elaborate(t, socgen.SOC1()), Options{})
		cancel()
		if err == nil {
			t.Fatalf("%s: 1ns timeout did not abort the flow", r.name)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: timeout error %v does not wrap DeadlineExceeded", r.name, err)
		}
	}
	leakcheck.VerifyNone(t)
}

// TestFlowPreCancelledContext: an already-cancelled context stops the
// run before any job.
func TestFlowPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunPRESP(ctx, elaborate(t, socgen.SOC1()), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestGenerateRuntimeBitstreamsCancel: the runtime bitstream generator
// honours its context too.
func TestGenerateRuntimeBitstreamsCancel(t *testing.T) {
	d := elaborate(t, socgen.SOC2())
	plan, err := FloorplanDesign(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc := map[string][]string{}
	for _, rp := range d.RPs {
		alloc[rp.Tile.Name] = []string{"mac"}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GenerateRuntimeBitstreams(ctx, d, plan, alloc, accel.Default(), true, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context did not abort bitstream generation: %v", err)
	}
	leakcheck.VerifyNone(t)
}

// TestNormalizeWorkers covers the centralized validation shared by the
// flow, the scheduler and the presp-flow CLI.
func TestNormalizeWorkers(t *testing.T) {
	if _, err := NormalizeWorkers(-1); err == nil {
		t.Fatal("negative worker count accepted")
	}
	n, err := NormalizeWorkers(0)
	if err != nil || n < 1 {
		t.Fatalf("NormalizeWorkers(0) = %d, %v", n, err)
	}
	n, err = NormalizeWorkers(7)
	if err != nil || n != 7 {
		t.Fatalf("NormalizeWorkers(7) = %d, %v", n, err)
	}
}

// TestNegativeWorkersRejected: every scheduler entry point returns the
// NormalizeWorkers error for a negative worker count before any job
// runs.
func TestNegativeWorkersRejected(t *testing.T) {
	_, want := NormalizeWorkers(-1)
	d := elaborate(t, socgen.SOC2())
	plan, err := FloorplanDesign(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc := map[string][]string{}
	for _, rp := range d.RPs {
		alloc[rp.Tile.Name] = []string{"mac"}
	}
	observer := obs.New()
	beats := 0
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"RunPRESP", func() error {
			_, err := RunPRESP(context.Background(), d, Options{
				Workers:   -1,
				Observer:  observer,
				Heartbeat: func(int, vivado.Minutes) { beats++ },
			})
			return err
		}},
		{"GenerateRuntimeBitstreams", func() error {
			_, err := GenerateRuntimeBitstreams(context.Background(), d, plan, alloc, accel.Default(), true, -1)
			return err
		}},
	} {
		if err := tc.run(); err == nil || err.Error() != want.Error() {
			t.Fatalf("%s: got %v, want %v", tc.name, err, want)
		}
	}
	if n := observer.Tracer().Len(); n != 0 || beats != 0 {
		t.Fatalf("rejected run still did work: %d trace events, %d heartbeats", n, beats)
	}
}
