// Incremental re-flow suite: the stage-artifact cache must skip
// exactly the jobs whose inputs are unchanged, and a run assembled from
// cached artifacts must be byte-identical to one computed from scratch
// — at every worker count.
package flow

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"presp/internal/bitstream"
	"presp/internal/core"
	"presp/internal/floorplan"
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

	// Stage-cache accounting must agree with the scheduler's: every
	// StageCache hit is a skipped job and every miss a probed job that
	// ran, run by run.
	var seenHits, seenMisses int64
	checkStageStats := func(run string, res *Result) {
		t.Helper()
		hits, misses := stage.Stats()
		if hits-seenHits != int64(res.Jobs.Skipped) || misses-seenMisses != int64(res.Jobs.StageCacheMisses) {
			t.Fatalf("%s run: StageCache moved by %d hits / %d misses, want %d / %d (Jobs.Skipped / Jobs.StageCacheMisses)",
				run, hits-seenHits, misses-seenMisses, res.Jobs.Skipped, res.Jobs.StageCacheMisses)
		}
		seenHits, seenMisses = hits, misses
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
	checkStageStats("cold", cold)

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
	checkStageStats("warm", warm)
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
	checkStageStats("one-kernel edit", edit)

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

// TestWarmRunsShareCachedImage pins the sharing contract of the stage
// cache's memory tier: a hit serves the value the populating run
// published — the same pointer, never a decoded copy — to every
// concurrent reader, and nothing a caller does with a copy of it can
// reach the cache. Run under -race, the concurrent leg also proves the
// shared image is only ever read.
func TestWarmRunsShareCachedImage(t *testing.T) {
	cache := vivado.NewCheckpointCache()
	stage := vivado.NewStageCache()
	run := func(d *socgen.Design) (*Result, error) {
		return RunPRESP(context.Background(), d, Options{
			Compress: true, Workers: 2, Cache: cache, StageCache: stage, Strategy: forceFully(t, d),
		})
	}
	cold, err := run(elaborate(t, socgen.SOC2()))
	if err != nil {
		t.Fatal(err)
	}
	wantCRC := cold.FullBitstream.CRC()

	// Eight concurrent warm runs read the one cached full image.
	const flights = 8
	designs := make([]*socgen.Design, flights)
	for i := range designs {
		designs[i] = elaborate(t, socgen.SOC2())
	}
	results := make([]*Result, flights)
	errs := make([]error, flights)
	var wg sync.WaitGroup
	for i := range designs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = run(designs[i])
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("warm run %d: %v", i, errs[i])
		}
		if res.Jobs.SkippedByStage[StageBitgen] != len(res.Design.RPs)+1+fullChunks {
			t.Fatalf("warm run %d regenerated bitstreams: %+v", i, res.Jobs)
		}
		if got := res.FullBitstream.CRC(); got != wantCRC {
			t.Fatalf("warm run %d: full-image CRC %08x, want %08x", i, got, wantCRC)
		}
		// A memory hit serves the published value, not a decode of it.
		if res.FullBitstream != cold.FullBitstream {
			t.Fatalf("warm run %d: full image is a copy, want the cold run's pointer", i)
		}
		for j, bs := range res.PartialBitstreams {
			if bs != cold.PartialBitstreams[j] {
				t.Fatalf("warm run %d: partial %s is a copy, want the cold run's pointer", i, bs.Name)
			}
		}
	}

	// Scribbling over a corrupted copy of a warm image leaves the cached
	// image, and the next warm run's, untouched.
	bad := results[0].FullBitstream.CorruptedCopy(17)
	for i := range bad.Data {
		bad.Data[i] ^= 0x5a
	}
	next, err := run(elaborate(t, socgen.SOC2()))
	if err != nil {
		t.Fatal(err)
	}
	if got := next.FullBitstream.CRC(); got != wantCRC {
		t.Fatalf("next warm run: full-image CRC %08x, want %08x", got, wantCRC)
	}
	if err := next.FullBitstream.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalWarmRestartFromDisk: with a disk tier under the
// checkpoint cache, the stage cache rides it, so a fresh process (fresh
// in-memory caches over the same directory) skips every post-synthesis
// job and pays no synthesis recompute either.
func TestIncrementalWarmRestartFromDisk(t *testing.T) {
	dir := t.TempDir()
	run := func() *Result {
		d := elaborate(t, socgen.SOC2())
		res, err := RunPRESP(context.Background(), d, Options{
			Compress:   true,
			Cache:      diskCache(t, dir, nil),
			StageCache: vivado.NewStageCache(),
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

// TestStageArtifactsParentFormat: testdata/parent_art holds two .art
// entries written by the previous stage cache, which kept JSON bodies
// in memory — the SOC_1 floorplan and the compressed rt_11_rp partial
// image of a fully-parallel run. The {minutes, payload} body is
// unchanged, so a store over them serves both as hits whose values
// equal a cold run's, image CRC included, and a damaged copy is still
// quarantined, never decoded.
func TestStageArtifactsParentFormat(t *testing.T) {
	const (
		floorplanKey = "1349ee9cff9b1f0a"
		partialKey   = "75d5757e931a1101"
		partition    = "rt_11_rp"
	)
	d := elaborate(t, socgen.SOC1())
	opt := Options{Compress: true, Strategy: forceFully(t, d)}
	cold, err := RunPRESP(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	tool, err := vivado.New(d.Dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	probe := opt
	probe.StageCache = vivado.NewStageCache()
	sk := buildStageKeys(d, tool, opt.Strategy, probe, modePRESP)
	if sk.floorplan != floorplanKey || sk.partials[partition] != partialKey {
		t.Fatalf("stage keys moved: floorplan %s, %s partial %s", sk.floorplan, partition, sk.partials[partition])
	}

	fixture := func(t *testing.T, key string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("testdata", "parent_art", key+".art"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var coldPartial *bitstream.Bitstream
	for _, bs := range cold.PartialBitstreams {
		if bs.Name == "SOC_1."+partition+".pbs" {
			coldPartial = bs
		}
	}
	if coldPartial == nil || !coldPartial.Compressed {
		t.Fatalf("cold run has no compressed %s image", partition)
	}

	t.Run("hits", func(t *testing.T) {
		dir := t.TempDir()
		for _, key := range []string{floorplanKey, partialKey} {
			if err := os.WriteFile(filepath.Join(dir, key+".art"), fixture(t, key), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ds, err := vivado.OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st := ds.Stats(); st.Entries != 2 || st.Corrupt != 0 {
			t.Fatalf("parent entries failed verify-at-open: %+v", st)
		}
		sc := vivado.NewStageCache()
		sc.SetDiskStore(ds)
		plan, _, ok := vivado.LookupStage[*floorplan.Plan](sc, floorplanKey)
		if !ok || !reflect.DeepEqual(plan, cold.Plan) {
			t.Fatalf("parent floorplan = %+v, %v; want the cold plan %+v", plan, ok, cold.Plan)
		}
		img, minutes, ok := vivado.LookupStage[*bitstream.Bitstream](sc, partialKey)
		if !ok || !reflect.DeepEqual(img, coldPartial) || img.CRC() != coldPartial.CRC() || minutes <= 0 {
			t.Fatalf("parent partial image: ok=%v minutes=%v, want the cold image (CRC %08x)", ok, minutes, coldPartial.CRC())
		}
		if err := img.Verify(); err != nil {
			t.Fatal(err)
		}

		// A warm run over the same store skips both jobs and assembles
		// the cold result.
		warmOpt := opt
		warmOpt.StageCache = sc
		d2 := elaborate(t, socgen.SOC1())
		warmOpt.Strategy = forceFully(t, d2)
		warm, err := RunPRESP(context.Background(), d2, warmOpt)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Jobs.SkippedByStage[StagePlan] != 1 || warm.Jobs.SkippedByStage[StageBitgen] != 1 {
			t.Fatalf("warm run skipped %v, want the floorplan and one partial", warm.Jobs.SkippedByStage)
		}
		if resultSignature(warm) != resultSignature(cold) {
			t.Fatalf("run over parent artifacts diverged:\n--- warm ---\n%s--- cold ---\n%s",
				resultSignature(warm), resultSignature(cold))
		}
	})

	t.Run("damaged", func(t *testing.T) {
		dir := t.TempDir()
		ds, err := vivado.OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Plant the damaged copy after open, so the read path — not the
		// verify-at-open scan — has to catch it.
		data := fixture(t, partialKey)
		data[len(data)/2] ^= 0x20
		path := filepath.Join(dir, partialKey+".art")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sc := vivado.NewStageCache()
		sc.SetDiskStore(ds)
		if img, _, ok := vivado.LookupStage[*bitstream.Bitstream](sc, partialKey); ok {
			t.Fatalf("damaged parent entry decoded as %s", img.Name)
		}
		if _, err := os.Stat(path + ".bad"); err != nil {
			t.Fatalf("damaged entry not quarantined: %v", err)
		}
		if st := ds.Stats(); st.Corrupt != 1 || st.Entries != 0 {
			t.Fatalf("disk stats after damaged read: %+v", st)
		}
	})
}
