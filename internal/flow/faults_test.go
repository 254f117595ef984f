// CAD fault-injection suite: seeded fault plans against the flow engine
// must produce byte-identical results for any worker count, retries
// must recover transient faults without disturbing the cost model, and
// the collect policy must keep independent partitions alive.
package flow

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"presp/internal/core"
	"presp/internal/faultinject"
	"presp/internal/leakcheck"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

func parsePlan(t *testing.T, s string) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.ParsePlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFlowFaultDeterminism: under a seeded mixed plan (persistent
// deterministic faults plus rate faults) with retries and the collect
// policy, the full Result — wall times, bitstream CRCs, and the
// per-job error list — is byte-identical across worker counts and
// repeats.
func TestFlowFaultDeterminism(t *testing.T) {
	plans := []string{
		"synth@rt_1_rp:count=-1",
		"seed=11,impl=0.6",
		"seed=5,synth=0.4,bitgen=0.5,drc@rt_2_rp:count=1",
	}
	for _, planStr := range plans {
		var baseline string
		for _, workers := range []int{1, 4, runtime.NumCPU()} {
			for repeat := 0; repeat < 2; repeat++ {
				res, err := RunPRESP(context.Background(), elaborate(t, socgen.SOC2()), Options{
					Compress:      true,
					Workers:       workers,
					FaultPlan:     parsePlan(t, planStr),
					MaxJobRetries: 1,
					ErrorPolicy:   Collect,
				})
				if err != nil {
					t.Fatalf("plan %q workers=%d: collect run errored: %v", planStr, workers, err)
				}
				sig := resultSignature(res)
				if baseline == "" {
					baseline = sig
					continue
				}
				if sig != baseline {
					t.Fatalf("plan %q workers=%d repeat=%d: result diverged under faults:\n--- got ---\n%s--- baseline ---\n%s",
						planStr, workers, repeat, sig, baseline)
				}
			}
		}
	}
	leakcheck.VerifyNone(t)
}

// TestFlowRetryRecoversTransientFault: a fault that fires exactly once
// per site is absorbed by one retry — the run succeeds and the
// published cost-model times are identical to a fault-free run (virtual
// backoff lands in SimMinutes, never in the wall times).
func TestFlowRetryRecoversTransientFault(t *testing.T) {
	ref, err := RunPRESP(context.Background(), elaborate(t, socgen.SOC1()), Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPRESP(context.Background(), elaborate(t, socgen.SOC1()), Options{
		Compress:      true,
		FaultPlan:     parsePlan(t, "synth:count=1,impl:count=1"),
		MaxJobRetries: 1,
	})
	if err != nil {
		t.Fatalf("retry did not recover single-shot faults: %v", err)
	}
	if res.Jobs.Retries == 0 {
		t.Fatal("no retries recorded although every synth and impl job faulted once")
	}
	if got, want := resultSignature(res), resultSignature(ref); got != want {
		t.Fatalf("retried run differs from fault-free run:\n--- faulted+retried ---\n%s--- reference ---\n%s", got, want)
	}
	if res.Jobs.SimMinutes <= ref.Jobs.SimMinutes {
		t.Fatalf("SimMinutes %v under faults not greater than fault-free %v (retry attempts and backoff must be accounted)",
			res.Jobs.SimMinutes, ref.Jobs.SimMinutes)
	}
}

// TestFlowFailFastSurfacesInjectedFault: the default policy returns the
// injected fault (recognizable via faultinject.As) and no result.
func TestFlowFailFastSurfacesInjectedFault(t *testing.T) {
	res, err := RunPRESP(context.Background(), elaborate(t, socgen.SOC2()), Options{
		Compress:  true,
		FaultPlan: parsePlan(t, "synth@rt_1_rp:count=-1"),
	})
	if err == nil {
		t.Fatal("persistent synth fault did not fail the run")
	}
	if res != nil {
		t.Fatal("fail-fast returned a result alongside the error")
	}
	if _, ok := faultinject.As(err); !ok {
		t.Fatalf("error does not unwrap to the injected fault: %v", err)
	}
	var je JobError
	if !errors.As(err, &je) || je.ID != "synth/rt_1_rp" {
		t.Fatalf("error does not identify the failed job: %v", err)
	}
}

// TestFlowCollectKeepsIndependentPartitions: with one partition's
// synthesis permanently wedged, the collect policy still implements and
// generates bitstreams for the others, reporting the losses in
// JobErrors with Partial set.
func TestFlowCollectKeepsIndependentPartitions(t *testing.T) {
	d := elaborate(t, socgen.SOC2())
	if len(d.RPs) < 2 {
		t.Fatalf("SOC_2 has %d partitions; test needs at least 2", len(d.RPs))
	}
	victim := d.RPs[0].Name
	strat, err := core.ForceStrategy(d, core.FullyParallel, len(d.RPs))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPRESP(context.Background(), d, Options{
		Compress:    true,
		Strategy:    strat,
		FaultPlan:   parsePlan(t, "synth@"+victim+":count=-1"),
		ErrorPolicy: Collect,
	})
	if err != nil {
		t.Fatalf("collect run errored: %v", err)
	}
	if !res.Partial {
		t.Fatal("result not marked Partial despite job failures")
	}
	if len(res.JobErrors) == 0 || res.JobErrors[0].ID != "synth/"+victim {
		t.Fatalf("JobErrors = %v, want synth/%s first", res.JobErrors, victim)
	}
	if _, ok := res.SynthRuns[victim]; ok {
		t.Fatalf("faulted partition %s reports a synthesis time", victim)
	}
	// The surviving partitions must have synthesized and produced their
	// partial bitstreams; the victim's (and the full-device image, which
	// joins every implementation) must be absent.
	for _, rp := range d.RPs[1:] {
		if _, ok := res.SynthRuns[rp.Name]; !ok {
			t.Fatalf("independent partition %s did not synthesize", rp.Name)
		}
	}
	if len(res.PartialBitstreams) != len(d.RPs)-1 {
		t.Fatalf("%d partial bitstreams survived, want %d", len(res.PartialBitstreams), len(d.RPs)-1)
	}
	for _, bs := range res.PartialBitstreams {
		if bs.Name == d.Cfg.Name+"."+victim+".pbs" {
			t.Fatalf("faulted partition %s produced a bitstream", victim)
		}
	}
	if res.FullBitstream != nil {
		t.Fatal("full bitstream generated although one implementation was cancelled")
	}
	if res.Jobs.Cancelled == 0 {
		t.Fatal("no jobs recorded as cancelled downstream of the fault")
	}
}

// TestMonolithicFaults: the monolithic baseline shares the injection
// discipline — its single synthesis is a fault site like any other.
func TestMonolithicFaults(t *testing.T) {
	d := elaborate(t, socgen.SOC1())
	_, err := RunMonolithic(context.Background(), d, Options{
		FaultPlan: parsePlan(t, "synth@full:count=-1"),
	})
	if err == nil {
		t.Fatal("persistent monolithic synth fault did not fail the run")
	}
	if _, ok := faultinject.As(err); !ok {
		t.Fatalf("error does not unwrap to the injected fault: %v", err)
	}
	res, err := RunMonolithic(context.Background(), elaborate(t, socgen.SOC1()), Options{
		FaultPlan:     parsePlan(t, "synth@full:count=1,bitgen:count=1"),
		MaxJobRetries: 1,
	})
	if err != nil {
		t.Fatalf("retry did not recover monolithic faults: %v", err)
	}
	if res.Jobs.Retries < 2 {
		t.Fatalf("recorded %d retries, want >= 2", res.Jobs.Retries)
	}
}

// TestSynthFaultsFireOnWarmCache: synthesis consults its fault hook
// before the checkpoint cache, so a warm cache changes only the cache
// traffic of a faulted run. SOC_2 runs under a seeded synth plan with
// the collect policy, once over cold caches and once after a
// fault-free warm-up of the same caches: both runs fail the same jobs
// with the same injected faults, and their results and job statistics
// are identical apart from the checkpoint-cache hit and miss counts.
func TestSynthFaultsFireOnWarmCache(t *testing.T) {
	plan := parsePlan(t, "seed=7,synth=0.5")
	faulted := func(cache *vivado.CheckpointCache, stage *vivado.StageCache) *Result {
		t.Helper()
		res, err := RunPRESP(context.Background(), elaborate(t, socgen.SOC2()), Options{
			Compress: true, Cache: cache, StageCache: stage, FaultPlan: plan, ErrorPolicy: Collect,
		})
		if err != nil {
			t.Fatalf("collect run errored: %v", err)
		}
		return res
	}
	injected := func(res *Result) int {
		n := 0
		for _, je := range res.JobErrors {
			if f, ok := faultinject.As(je.Err); ok && f.Op == faultinject.OpCADSynth {
				n++
			}
		}
		return n
	}

	cold := faulted(vivado.NewCheckpointCache(), vivado.NewStageCache())
	cache, stage := vivado.NewCheckpointCache(), vivado.NewStageCache()
	if _, err := RunPRESP(context.Background(), elaborate(t, socgen.SOC2()), Options{
		Compress: true, Cache: cache, StageCache: stage,
	}); err != nil {
		t.Fatal(err)
	}
	warm := faulted(cache, stage)

	if injected(cold) == 0 {
		t.Fatal("the plan injected no synthesis fault, so the test shows nothing")
	}
	if got, want := injected(warm), injected(cold); got != want {
		t.Fatalf("warm run injected %d synthesis faults, cold run %d", got, want)
	}
	if !reflect.DeepEqual(warm.JobErrors, cold.JobErrors) {
		t.Fatalf("warm run failed other jobs:\nwarm: %v\ncold: %v", warm.JobErrors, cold.JobErrors)
	}
	if got, want := resultSignature(warm), resultSignature(cold); got != want {
		t.Fatalf("warm run diverged from cold run:\n--- warm ---\n%s--- cold ---\n%s", got, want)
	}
	if warm.Jobs.CacheHits == 0 || warm.Jobs.CacheMisses != 0 {
		t.Fatalf("warm run did not hit the checkpoint cache alone: %+v", warm.Jobs)
	}
	wj, cj := warm.Jobs, cold.Jobs
	wj.CacheHits, wj.CacheMisses, cj.CacheHits, cj.CacheMisses = 0, 0, 0, 0
	if !reflect.DeepEqual(wj, cj) {
		t.Fatalf("warm run's job statistics differ beyond cache traffic:\nwarm: %+v\ncold: %+v", warm.Jobs, cold.Jobs)
	}
}
