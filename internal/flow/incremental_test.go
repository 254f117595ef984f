// Incremental re-flow suite: the stage-artifact cache must skip
// exactly the jobs whose inputs are unchanged, and a run assembled from
// cached artifacts must be byte-identical to one computed from scratch
// — at every worker count.
package flow

import (
	"context"
	"runtime"
	"testing"

	"presp/internal/core"
	"presp/internal/fpga"
	"presp/internal/obs"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

// forceFully pins the fully-parallel strategy: one group per partition,
// so the implementation-run invalidation unit IS the partition and the
// one-kernel-edit property below is exact.
func forceFully(t *testing.T, d *socgen.Design) *core.Strategy {
	t.Helper()
	strat, err := core.ForceStrategy(d, core.FullyParallel, len(d.RPs))
	if err != nil {
		t.Fatal(err)
	}
	return strat
}

// editKernel re-costs one partition's content in place: the resource
// envelope, module name and clock topology stay fixed, so the design
// digest and floorplan inputs are unchanged while the synthesis
// checkpoint key — and everything downstream of it — is not.
func editKernel(t *testing.T, d *socgen.Design, idx int) string {
	t.Helper()
	rp := d.RPs[idx]
	if rp.Content == nil {
		t.Fatalf("partition %s has no content to edit", rp.Name)
	}
	if rp.Content.Cost[fpga.LUT] < 128 {
		t.Fatalf("partition %s too small to re-cost: %v", rp.Name, rp.Content.Cost)
	}
	rp.Content.Cost[fpga.LUT] -= 64
	return rp.Name
}

// TestIncrementalEditReimplementsOnlyEditedPartition is the acceptance
// property of incremental re-flow: on a 4-partition SoC under the
// fully-parallel strategy, editing one accelerator and re-running
// executes exactly that partition's implementation and partial-bitstream
// jobs — everything else (floorplan, scripts, static pre-route, the
// other three groups, the full-device bitstream, the other partials) is
// served from the artifact cache — and the assembled result is
// byte-identical to a cold run of the edited design.
func TestIncrementalEditReimplementsOnlyEditedPartition(t *testing.T) {
	cache := vivado.NewCheckpointCache()
	stage := vivado.NewStageCache()
	base := func(d *socgen.Design) Options {
		return Options{
			Compress:   true,
			Cache:      cache,
			StageCache: stage,
			Strategy:   forceFully(t, d),
		}
	}

	d1 := elaborate(t, socgen.SOC2())
	if len(d1.RPs) < 4 {
		t.Fatalf("SOC_2 has %d partitions, the property needs >= 4", len(d1.RPs))
	}

	cold, err := RunPRESP(context.Background(), d1, base(d1))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Jobs.Skipped != 0 {
		t.Fatalf("cold run skipped %d jobs, want 0", cold.Jobs.Skipped)
	}
	if cold.Jobs.StageCacheMisses == 0 {
		t.Fatal("cold run probed no stage keys: caching is not wired")
	}
	postSynth := cold.Jobs.PlanJobs + cold.Jobs.ImplJobs + cold.Jobs.BitgenJobs
	if cold.Jobs.StageCacheMisses != postSynth {
		t.Fatalf("cold run: %d stage-cache misses, want %d (every post-synthesis job)",
			cold.Jobs.StageCacheMisses, postSynth)
	}

	// Warm identical resubmission: every post-synthesis job skips.
	d2 := elaborate(t, socgen.SOC2())
	warm, err := RunPRESP(context.Background(), d2, base(d2))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Jobs.Skipped != postSynth || warm.Jobs.PlanJobs != 0 ||
		warm.Jobs.ImplJobs != 0 || warm.Jobs.BitgenJobs != 0 {
		t.Fatalf("warm run executed work it should have skipped: %+v", warm.Jobs)
	}
	if resultSignature(warm) != resultSignature(cold) {
		t.Fatalf("warm run diverged from cold run:\n--- warm ---\n%s--- cold ---\n%s",
			resultSignature(warm), resultSignature(cold))
	}

	// One-kernel edit: re-cost partition 1, keep the envelope.
	d3 := elaborate(t, socgen.SOC2())
	edited := editKernel(t, d3, 1)
	if DesignDigest(d3) != DesignDigest(d1) {
		t.Fatal("re-costing a kernel changed the design digest; the edit is not envelope-preserving")
	}
	editOpt := base(d3)
	editOpt.Observer = obs.New()
	edit, err := RunPRESP(context.Background(), d3, editOpt)
	if err != nil {
		t.Fatal(err)
	}
	if edit.Jobs.PlanJobs != 0 || edit.Jobs.ImplJobs != 1 || edit.Jobs.BitgenJobs != 1 {
		t.Fatalf("one-kernel edit re-ran plan=%d impl=%d bitgen=%d jobs, want 0/1/1: %+v",
			edit.Jobs.PlanJobs, edit.Jobs.ImplJobs, edit.Jobs.BitgenJobs, edit.Jobs)
	}
	if edit.Jobs.Skipped != postSynth-2 || edit.Jobs.StageCacheMisses != 2 {
		t.Fatalf("one-kernel edit: %d skips / %d misses, want %d / 2",
			edit.Jobs.Skipped, edit.Jobs.StageCacheMisses, postSynth-2)
	}
	if edit.Jobs.CacheMisses != 1 {
		t.Fatalf("one-kernel edit paid %d synthesis misses, want 1 (the edited module)", edit.Jobs.CacheMisses)
	}

	// The trace must name exactly the edited partition's impl group and
	// partial bitstream as the executed post-synthesis jobs ("job"
	// spans); every other one is a "stage-skip" instant.
	gi := -1
	for i, group := range editOpt.Strategy.Groups {
		for _, name := range group {
			if name == edited {
				gi = i
			}
		}
	}
	if gi < 0 {
		t.Fatalf("edited partition %s not in any strategy group", edited)
	}
	wantRan := map[string]bool{
		"impl/group_" + padGroup(gi): true,
		"bitgen/" + edited:           true,
	}
	ran, skipped := 0, 0
	for _, ev := range editOpt.Observer.Tracer().Events() {
		switch {
		case ev.Phase == "X" && ev.Cat == "job" && ev.Args["stage"] != StageSynth.String():
			ran++
			if !wantRan[ev.Name] {
				t.Errorf("trace: job %s ran, want skipped", ev.Name)
			}
		case ev.Phase == "i" && ev.Cat == "stage-skip":
			skipped++
			if wantRan[ev.Name] {
				t.Errorf("trace: job %s skipped, want ran", ev.Name)
			}
		}
	}
	if ran != len(wantRan) || skipped != postSynth-len(wantRan) {
		t.Errorf("trace: %d post-synthesis jobs ran and %d skipped, want %d and %d",
			ran, skipped, len(wantRan), postSynth-len(wantRan))
	}

	// The incremental result must be byte-identical to a from-scratch
	// run of the same edited design — including every bitstream CRC.
	dRef := elaborate(t, socgen.SOC2())
	editKernel(t, dRef, 1)
	ref, err := RunPRESP(context.Background(), dRef, Options{
		Compress: true, Strategy: forceFully(t, dRef),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resultSignature(edit) != resultSignature(ref) {
		t.Fatalf("incremental edited run diverged from cold edited run:\n--- incremental ---\n%s--- cold ---\n%s",
			resultSignature(edit), resultSignature(ref))
	}

	// Observability: skip and miss counters mirror the scheduler stats,
	// skipped jobs get no "job" span, and flow_jobs_total still counts
	// executed jobs only.
	snap := editOpt.Observer.Metrics().Snapshot()
	if got := snap.Counters["flow_stage_cache_hits"]; got != int64(edit.Jobs.Skipped) {
		t.Fatalf("flow_stage_cache_hits=%d, want %d", got, edit.Jobs.Skipped)
	}
	if got := snap.Counters["flow_stage_cache_misses"]; got != int64(edit.Jobs.StageCacheMisses) {
		t.Fatalf("flow_stage_cache_misses=%d, want %d", got, edit.Jobs.StageCacheMisses)
	}
	events := editOpt.Observer.Tracer().Events()
	if got, want := obs.CountSpans(events, "job"), edit.Jobs.Executed(); got != want {
		t.Fatalf("%d job spans, want %d (skips must not emit job spans)", got, want)
	}
	if got, want := snap.Counters["flow_jobs_total"], int64(edit.Jobs.Executed()); got != want {
		t.Fatalf("flow_jobs_total=%d, want %d", got, want)
	}
}

func padGroup(gi int) string {
	return string([]byte{'0' + byte(gi/100%10), '0' + byte(gi/10%10), '0' + byte(gi%10)})
}

// TestIncrementalWarmWorkerCountInvariance pins the determinism rule of
// DESIGN.md §16: a run assembled entirely from cached artifacts is
// byte-identical to the cold run for every worker count.
func TestIncrementalWarmWorkerCountInvariance(t *testing.T) {
	cache := vivado.NewCheckpointCache()
	stage := vivado.NewStageCache()
	opts := func(d *socgen.Design, workers int) Options {
		return Options{
			Compress:   true,
			Workers:    workers,
			Cache:      cache,
			StageCache: stage,
			Strategy:   forceFully(t, d),
		}
	}
	d := elaborate(t, socgen.SOC2())
	cold, err := RunPRESP(context.Background(), d, opts(d, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := resultSignature(cold)
	postSynth := cold.Jobs.PlanJobs + cold.Jobs.ImplJobs + cold.Jobs.BitgenJobs
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		dw := elaborate(t, socgen.SOC2())
		warm, err := RunPRESP(context.Background(), dw, opts(dw, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if warm.Jobs.Skipped != postSynth {
			t.Fatalf("workers=%d: skipped %d jobs, want %d", workers, warm.Jobs.Skipped, postSynth)
		}
		if got := resultSignature(warm); got != want {
			t.Fatalf("workers=%d: warm run diverged from cold run:\n--- warm ---\n%s--- cold ---\n%s",
				workers, got, want)
		}
	}
}

// TestIncrementalWarmRestartFromDisk: with a CacheDir, the stage cache
// rides the checkpoint cache's disk tier, so a fresh process (fresh
// in-memory caches over the same directory) skips every post-synthesis
// job and pays no synthesis recompute either.
func TestIncrementalWarmRestartFromDisk(t *testing.T) {
	dir := t.TempDir()
	run := func() *Result {
		d := elaborate(t, socgen.SOC2())
		res, err := RunPRESP(context.Background(), d, Options{
			Compress:   true,
			Cache:      vivado.NewCheckpointCache(),
			StageCache: vivado.NewStageCache(),
			CacheDir:   dir,
			Strategy:   forceFully(t, d),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run()
	warm := run()
	postSynth := cold.Jobs.PlanJobs + cold.Jobs.ImplJobs + cold.Jobs.BitgenJobs
	if warm.Jobs.Skipped != postSynth {
		t.Fatalf("restarted run skipped %d jobs, want %d", warm.Jobs.Skipped, postSynth)
	}
	if warm.Jobs.CacheMisses != 0 {
		t.Fatalf("restarted run paid %d synthesis misses, want 0", warm.Jobs.CacheMisses)
	}
	if resultSignature(warm) != resultSignature(cold) {
		t.Fatalf("disk-restarted run diverged:\n--- warm ---\n%s--- cold ---\n%s",
			resultSignature(warm), resultSignature(cold))
	}
}

// TestStageCacheDisabledUnderFaults: a fault plan must force every
// stage to execute — a cached skip would bypass the injected fault.
func TestStageCacheDisabledUnderFaults(t *testing.T) {
	cache := vivado.NewCheckpointCache()
	stage := vivado.NewStageCache()
	d := elaborate(t, socgen.SOC2())
	if _, err := RunPRESP(context.Background(), d, Options{
		Compress: true, Cache: cache, StageCache: stage, Strategy: forceFully(t, d),
	}); err != nil {
		t.Fatal(err)
	}
	// A plan whose only rule targets a job that does not exist: no fault
	// ever fires, so the run succeeds — but its mere presence must turn
	// stage caching off.
	plan := parsePlan(t, "seed=3,impl@zz_no_such_partition:count=1")
	d2 := elaborate(t, socgen.SOC2())
	res, err := RunPRESP(context.Background(), d2, Options{
		Compress: true, Cache: cache, StageCache: stage, Strategy: forceFully(t, d2), FaultPlan: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs.Skipped != 0 || res.Jobs.StageCacheMisses != 0 {
		t.Fatalf("faulted run used the stage cache: %+v", res.Jobs)
	}
}
