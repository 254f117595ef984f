// Cache-effectiveness tests and benchmarks: probing several strategies
// for one design must synthesize it once, not once per strategy.
package flow

import (
	"context"
	"testing"

	"presp/internal/accel"
	"presp/internal/core"
	"presp/internal/fpga"
	"presp/internal/obs"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

// strategySweep returns the three strategies a sweep probes on SOC_2
// (serial, semi-parallel τ=2, fully parallel).
func strategySweep(t testing.TB, d *socgen.Design) []*core.Strategy {
	t.Helper()
	var out []*core.Strategy
	for _, k := range []struct {
		kind core.StrategyKind
		tau  int
	}{{core.Serial, 1}, {core.SemiParallel, 2}, {core.FullyParallel, len(d.RPs)}} {
		s, err := core.ForceStrategy(d, k.kind, k.tau)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// sweep runs the timing-only flow of d once per strategy over one
// checkpoint cache, the way the Table III characterization probes
// parallelism degrees.
func sweep(t testing.TB, d *socgen.Design, strategies []*core.Strategy, cache *vivado.CheckpointCache) {
	t.Helper()
	for _, s := range strategies {
		if _, err := RunPRESP(context.Background(), d, Options{Strategy: s, SkipBitstreams: true, Cache: cache}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEvaluatorCacheCutsSynthesisJobs is the acceptance check: with a
// shared cache, a strategy sweep performs at least 2x fewer cold
// synthesis jobs than the cache-less engine would, and flow.Result
// reports the hits.
func TestEvaluatorCacheCutsSynthesisJobs(t *testing.T) {
	d, err := socgen.Elaborate(socgen.SOC2(), accel.Default())
	if err != nil {
		t.Fatal(err)
	}
	strategies := strategySweep(t, d)
	cache := vivado.NewCheckpointCache()
	sweep(t, d, strategies, cache)
	hits, misses := cache.Stats()
	perRun := int64(len(d.RPs) + 1) // static + one OoC job per partition
	if misses != perRun {
		t.Fatalf("cold synthesis jobs: %d, want %d (one full design)", misses, perRun)
	}
	wantTotal := perRun * int64(len(strategies))
	if hits+misses != wantTotal {
		t.Fatalf("synthesis requests: %d, want %d", hits+misses, wantTotal)
	}
	if misses*2 > hits+misses {
		t.Fatalf("cache saved too little: %d cold of %d total (need >= 2x reduction)", misses, hits+misses)
	}

	// The per-run accounting surfaces on flow.Result too: a warm run
	// reports all-hit synthesis.
	res, err := RunPRESP(context.Background(), d, Options{Strategy: strategies[0], SkipBitstreams: true, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs.CacheHits != int(perRun) || res.Jobs.CacheMisses != 0 {
		t.Fatalf("warm run reported %d hits / %d misses, want %d/0",
			res.Jobs.CacheHits, res.Jobs.CacheMisses, perRun)
	}
	if res.Jobs.SynthJobs != int(perRun) {
		t.Fatalf("synth jobs: %d, want %d", res.Jobs.SynthJobs, perRun)
	}
}

// BenchmarkEvaluateStrategyCold sweeps the strategies over a fresh
// cache each iteration: the first strategy pays full synthesis.
func BenchmarkEvaluateStrategyCold(b *testing.B) {
	d, err := socgen.Elaborate(socgen.SOC2(), accel.Default())
	if err != nil {
		b.Fatal(err)
	}
	strategies := strategySweep(b, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(b, d, strategies, vivado.NewCheckpointCache())
	}
}

// BenchmarkEvaluateStrategyWarm shares one cache across all
// iterations: after the first sweep every synthesis is a hit.
func BenchmarkEvaluateStrategyWarm(b *testing.B) {
	d, err := socgen.Elaborate(socgen.SOC2(), accel.Default())
	if err != nil {
		b.Fatal(err)
	}
	strategies := strategySweep(b, d)
	cache := vivado.NewCheckpointCache()
	sweep(b, d, strategies, cache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(b, d, strategies, cache)
	}
}

// BenchmarkRunPRESPNilObserver measures the full flow with observation
// disabled — the instrumented hot paths resolve to nil instruments, so
// this must stay within noise of the pre-observability flow (the
// bench-smoke gate compares it against BenchmarkRunPRESPObserved).
func BenchmarkRunPRESPNilObserver(b *testing.B) {
	d, err := socgen.Elaborate(socgen.SOC2(), accel.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunPRESP(context.Background(), d, Options{Compress: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunPRESPObserved measures the same flow with a live metrics
// registry and tracer attached.
func BenchmarkRunPRESPObserved(b *testing.B) {
	d, err := socgen.Elaborate(socgen.SOC2(), accel.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunPRESP(context.Background(), d, Options{Compress: true, Observer: obs.New()}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchIncrementalSetup elaborates SOC_2 twice — a base design and a
// copy with one kernel re-costed — and pins the fully-parallel strategy
// for both, so the stage-cache invalidation unit is a single partition
// and the edit leg below re-runs exactly one impl + one bitgen job.
func benchIncrementalSetup(b *testing.B) (base, edited *socgen.Design, sBase, sEdited *core.Strategy) {
	b.Helper()
	var err error
	if base, err = socgen.Elaborate(socgen.SOC2(), accel.Default()); err != nil {
		b.Fatal(err)
	}
	if edited, err = socgen.Elaborate(socgen.SOC2(), accel.Default()); err != nil {
		b.Fatal(err)
	}
	edited.RPs[1].Content.Cost[fpga.LUT] -= 64
	if sBase, err = core.ForceStrategy(base, core.FullyParallel, len(base.RPs)); err != nil {
		b.Fatal(err)
	}
	if sEdited, err = core.ForceStrategy(edited, core.FullyParallel, len(edited.RPs)); err != nil {
		b.Fatal(err)
	}
	return base, edited, sBase, sEdited
}

// BenchmarkRunPRESPIncrementalCold pays the full flow every iteration:
// fresh checkpoint and stage caches, so nothing is reused.
func BenchmarkRunPRESPIncrementalCold(b *testing.B) {
	d, _, strat, _ := benchIncrementalSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := Options{Strategy: strat, Compress: true,
			Cache: vivado.NewCheckpointCache(), StageCache: vivado.NewStageCache()}
		if _, err := RunPRESP(context.Background(), d, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunPRESPIncrementalWarm reruns an unchanged design against
// primed caches: synthesis is all hits and every post-synthesis stage
// is skipped from the artifact cache.
func BenchmarkRunPRESPIncrementalWarm(b *testing.B) {
	d, _, strat, _ := benchIncrementalSetup(b)
	opts := Options{Strategy: strat, Compress: true,
		Cache: vivado.NewCheckpointCache(), StageCache: vivado.NewStageCache()}
	if _, err := RunPRESP(context.Background(), d, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunPRESP(context.Background(), d, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Jobs.Skipped == 0 || res.Jobs.StageCacheMisses != 0 {
			b.Fatalf("warm run reused nothing: %d skipped, %d misses",
				res.Jobs.Skipped, res.Jobs.StageCacheMisses)
		}
	}
}

// BenchmarkRunPRESPIncrementalEdit measures the one-kernel-edit rerun:
// each iteration primes fresh caches with the base design off the
// clock, then times the edited run, which re-synthesizes and
// re-implements only the edited partition.
func BenchmarkRunPRESPIncrementalEdit(b *testing.B) {
	base, edited, sBase, sEdited := benchIncrementalSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cache, stage := vivado.NewCheckpointCache(), vivado.NewStageCache()
		if _, err := RunPRESP(context.Background(), base, Options{Strategy: sBase, Compress: true,
			Cache: cache, StageCache: stage}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := RunPRESP(context.Background(), edited, Options{Strategy: sEdited, Compress: true,
			Cache: cache, StageCache: stage})
		if err != nil {
			b.Fatal(err)
		}
		if res.Jobs.ImplJobs != 1 || res.Jobs.BitgenJobs != 1 {
			b.Fatalf("edit run re-ran %d impl + %d bitgen jobs, want 1 + 1",
				res.Jobs.ImplJobs, res.Jobs.BitgenJobs)
		}
	}
}
