// Determinism suite: the concurrent job-graph engine must be
// observationally equivalent to a serial execution — identical modelled
// wall times, scripts and bitstream payloads for every worker count and
// for warm or cold checkpoint caches.
package flow

import (
	"context"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"presp/internal/accel"
	"presp/internal/core"
	"presp/internal/faultinject"
	"presp/internal/obs"
	"presp/internal/socgen"
)

// resultSignature renders every externally observable Result field —
// wall times, per-run times, groups, scripts, bitstream names and CRCs —
// into one canonical string. Scheduler statistics (Jobs) are excluded:
// worker counts and cache hit rates legitimately differ between runs.
func resultSignature(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy=%s tau=%d class=%s groups=%v\n",
		res.Strategy.Kind, res.Strategy.Tau, res.Strategy.Class, res.Strategy.Groups)
	fmt.Fprintf(&b, "synthwall=%v tstatic=%v maxomega=%v prwall=%v bitgen=%v total=%v\n",
		float64(res.SynthWall), float64(res.TStatic), float64(res.MaxOmega),
		float64(res.PRWall), float64(res.BitgenWall), float64(res.Total))
	runs := make([]string, 0, len(res.SynthRuns))
	for n := range res.SynthRuns {
		runs = append(runs, n)
	}
	sort.Strings(runs)
	for _, n := range runs {
		fmt.Fprintf(&b, "synth[%s]=%v\n", n, float64(res.SynthRuns[n]))
	}
	for _, gr := range res.Groups {
		fmt.Fprintf(&b, "group=%v omega=%v\n", gr.Partitions, float64(gr.Runtime))
	}
	if res.Plan != nil {
		names := make([]string, 0, len(res.Plan.Pblocks))
		for n := range res.Plan.Pblocks {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "pblock[%s]=%v\n", n, res.Plan.Pblocks[n])
		}
		fmt.Fprintf(&b, "rpfraction=%v freecells=%d\n", res.Plan.RPFraction, res.Plan.FreeCells)
	}
	if res.Scripts != nil {
		fmt.Fprintf(&b, "scripts-crc=%08x\n", crc32.ChecksumIEEE([]byte(fmt.Sprintf("%#v", res.Scripts))))
	}
	if res.FullBitstream != nil {
		fmt.Fprintf(&b, "full=%s frames=%d raw=%d crc=%08x\n",
			res.FullBitstream.Name, res.FullBitstream.Frames,
			res.FullBitstream.RawBytes, crc32.ChecksumIEEE(res.FullBitstream.Data))
	}
	for _, bs := range res.PartialBitstreams {
		fmt.Fprintf(&b, "partial=%s frames=%d raw=%d crc=%08x\n",
			bs.Name, bs.Frames, bs.RawBytes, crc32.ChecksumIEEE(bs.Data))
	}
	fmt.Fprintf(&b, "partial-result=%v\n", res.Partial)
	for _, je := range res.JobErrors {
		fmt.Fprintf(&b, "joberr=%s stage=%s attempts=%d err=%v\n", je.ID, je.Stage, je.Attempts, je.Err)
	}
	return b.String()
}

func elaborate(t *testing.T, cfg *socgen.Config) *socgen.Design {
	t.Helper()
	d, err := socgen.Elaborate(cfg, accel.Default())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRunPRESPWorkerCountInvariance: SOC_1 and SOC_2 across all three
// strategies with worker counts 1, 4 and NumCPU produce byte-identical
// results — the concurrent engine is equivalent to the serial seed.
func TestRunPRESPWorkerCountInvariance(t *testing.T) {
	workerCounts := []int{1, 4, runtime.NumCPU()}
	kinds := []struct {
		kind core.StrategyKind
		tau  int
	}{
		{core.Serial, 1},
		{core.SemiParallel, 2},
		{core.FullyParallel, 0},
	}
	for _, cfg := range []*socgen.Config{socgen.SOC1(), socgen.SOC2()} {
		for _, k := range kinds {
			d := elaborate(t, cfg)
			tau := k.tau
			if k.kind == core.FullyParallel {
				tau = len(d.RPs)
			}
			strat, err := core.ForceStrategy(d, k.kind, tau)
			if err != nil {
				t.Fatalf("%s %s: %v", cfg.Name, k.kind, err)
			}
			var baseline string
			for _, workers := range workerCounts {
				res, err := RunPRESP(context.Background(), elaborate(t, cfg), Options{
					Strategy: strat,
					Compress: true,
					Workers:  workers,
				})
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", cfg.Name, k.kind, workers, err)
				}
				if res.Jobs.Workers < 1 {
					t.Fatalf("%s %s: scheduler reported %d workers", cfg.Name, k.kind, res.Jobs.Workers)
				}
				sig := resultSignature(res)
				if baseline == "" {
					baseline = sig
					continue
				}
				if sig != baseline {
					t.Fatalf("%s %s: workers=%d diverged from workers=1:\n--- got ---\n%s\n--- want ---\n%s",
						cfg.Name, k.kind, workers, sig, baseline)
				}
			}
		}
	}
}

// TestBaselineFlowsWorkerCountInvariance covers the other two scheduler
// clients: the standard-DFX and monolithic baselines.
func TestBaselineFlowsWorkerCountInvariance(t *testing.T) {
	var baseline string
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		dfx, err := RunStandardDFX(context.Background(), elaborate(t, socgen.SOC2()), Options{Compress: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		mono, err := RunMonolithic(context.Background(), elaborate(t, socgen.SOC2()), Options{Compress: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		sig := resultSignature(dfx) + "====\n" + resultSignature(mono)
		if baseline == "" {
			baseline = sig
			continue
		}
		if sig != baseline {
			t.Fatalf("baseline flows diverged at workers=%d:\n--- got ---\n%s\n--- want ---\n%s",
				workers, sig, baseline)
		}
	}
}

// TestRuntimeBitstreamsDeterministic: with several invalid tiles in one
// allocation, the reported error must be the lexicographically-first
// tile's — not whichever map iteration surfaced first — and repeated
// generations must be identical.
func TestRuntimeBitstreamsDeterministic(t *testing.T) {
	reg := accel.Default()
	d := elaborate(t, socgen.SOC2())
	plan, err := FloorplanDesign(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc := map[string][]string{
		"rt_1": {"conv2d", "sort"},
		"rt_2": {"fft", "gemm"},
	}
	sigOf := func() string {
		bss, err := GenerateRuntimeBitstreams(context.Background(), d, plan, alloc, reg, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		tiles := make([]string, 0, len(bss))
		for tile := range bss {
			tiles = append(tiles, tile)
		}
		sort.Strings(tiles)
		for _, tile := range tiles {
			accs := make([]string, 0, len(bss[tile]))
			for acc := range bss[tile] {
				accs = append(accs, acc)
			}
			sort.Strings(accs)
			for _, acc := range accs {
				bs := bss[tile][acc]
				fmt.Fprintf(&b, "%s/%s=%s crc=%08x\n", tile, acc, bs.Name, crc32.ChecksumIEEE(bs.Data))
			}
		}
		return b.String()
	}
	first := sigOf()
	for i := 0; i < 5; i++ {
		if got := sigOf(); got != first {
			t.Fatalf("generation %d diverged:\n%s\nvs\n%s", i, got, first)
		}
	}

	// Two bad tiles: "aaa_ghost" sorts before "zzz_ghost", so the error
	// must always name aaa_ghost.
	bad := map[string][]string{
		"zzz_ghost": {"sort"},
		"aaa_ghost": {"sort"},
	}
	for i := 0; i < 10; i++ {
		_, err := GenerateRuntimeBitstreams(context.Background(), d, plan, bad, reg, true, 0)
		if err == nil {
			t.Fatal("unknown tiles accepted")
		}
		if !strings.Contains(err.Error(), "aaa_ghost") {
			t.Fatalf("error selection is map-order dependent: %v", err)
		}
	}
}

// TestErrorDeterminismUnderConcurrency: a design whose partition content
// violates the DFX rules must fail with the same error for every worker
// count, even while unrelated jobs run concurrently.
func TestErrorDeterminismUnderConcurrency(t *testing.T) {
	var want string
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		d := elaborate(t, socgen.SOC2())
		d.RPs[1].Content = nil // partition with nothing to synthesize
		_, err := RunPRESP(context.Background(), d, Options{SkipBitstreams: true, Workers: workers})
		if err == nil {
			t.Fatal("flow accepted a partition without content")
		}
		if want == "" {
			want = err.Error()
			continue
		}
		if err.Error() != want {
			t.Fatalf("workers=%d: error %q, want %q", workers, err, want)
		}
	}
}

// Reflect guard: if Result grows an observable field, the signature
// above must learn about it. Jobs, Design and unexported bookkeeping are
// intentionally exempt.
func TestResultSignatureCoversResult(t *testing.T) {
	covered := map[string]bool{
		"Design": true, "Strategy": true, "Plan": true, "SynthWall": true,
		"SynthRuns": true, "TStatic": true, "Groups": true, "MaxOmega": true,
		"PRWall": true, "BitgenWall": true, "Total": true,
		"FullBitstream": true, "PartialBitstreams": true, "Scripts": true,
		"Partial": true, "JobErrors": true, "Jobs": true,
	}
	rt := reflect.TypeOf(Result{})
	for i := 0; i < rt.NumField(); i++ {
		if !covered[rt.Field(i).Name] {
			t.Fatalf("Result gained field %s: extend resultSignature and the determinism suite", rt.Field(i).Name)
		}
	}
}

// TestObservedRunIsByteIdentical: attaching an Observer must not
// change results at any worker count — observation is strictly
// one-way. The traced runs also have to produce exactly one "job"
// span per executed job, with correctly nesting events, at every
// width.
func TestObservedRunIsByteIdentical(t *testing.T) {
	ref, err := RunPRESP(context.Background(), elaborate(t, socgen.SOC2()), Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	refSig := resultSignature(ref)
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		observer := obs.New()
		res, err := RunPRESP(context.Background(), elaborate(t, socgen.SOC2()), Options{
			Compress: true, Workers: workers, Observer: observer,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sig := resultSignature(res); sig != refSig {
			t.Fatalf("workers=%d: observed run diverged from unobserved run:\n--- observed ---\n%s--- reference ---\n%s",
				workers, sig, refSig)
		}
		events := observer.Tracer().Events()
		if got, want := obs.CountSpans(events, "job"), res.Jobs.Executed(); got != want {
			t.Fatalf("workers=%d: %d job spans, want %d (= executed jobs)", workers, got, want)
		}
		if err := obs.CheckNesting(events); err != nil {
			t.Fatalf("workers=%d: trace events do not nest: %v", workers, err)
		}
		snap := observer.Metrics().Snapshot()
		if got, want := snap.Counters["flow_jobs_total"], int64(res.Jobs.Executed()); got != want {
			t.Fatalf("workers=%d: flow_jobs_total=%d, want %d", workers, got, want)
		}
		if busy := snap.Gauges["flow_workers_busy"]; busy != 0 {
			t.Fatalf("workers=%d: flow_workers_busy=%v after the run, want 0", workers, busy)
		}
	}
}

// TestObservedFaultyRunIsByteIdentical: observation changes nothing on
// the failure paths either — retries, fault injection and the collect
// policy all produce the same Result with or without an Observer.
func TestObservedFaultyRunIsByteIdentical(t *testing.T) {
	plan, err := faultinject.ParsePlan("seed=11,synth@rt_1:count=1,impl=0.3")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Compress:      true,
		MaxJobRetries: 2,
		ErrorPolicy:   Collect,
		FaultPlan:     plan,
	}
	ref, err := RunPRESP(context.Background(), elaborate(t, socgen.SOC2()), opt)
	if err != nil {
		t.Fatal(err)
	}
	observed := opt
	observed.Observer = obs.New()
	res, err := RunPRESP(context.Background(), elaborate(t, socgen.SOC2()), observed)
	if err != nil {
		t.Fatal(err)
	}
	if resultSignature(res) != resultSignature(ref) {
		t.Fatalf("observed faulty run diverged:\n--- observed ---\n%s--- reference ---\n%s",
			resultSignature(res), resultSignature(ref))
	}
	snap := observed.Observer.Metrics().Snapshot()
	if got, want := snap.Counters["flow_job_retries_total"], int64(res.Jobs.Retries); got != want {
		t.Fatalf("flow_job_retries_total=%d, want %d", got, want)
	}
	if res.Jobs.Retries > 0 {
		retryInstants := 0
		for _, ev := range observed.Observer.Tracer().Events() {
			if ev.Phase == "i" && ev.Cat == "retry" {
				retryInstants++
			}
		}
		if retryInstants != res.Jobs.Retries {
			t.Fatalf("%d retry instants traced, want %d", retryInstants, res.Jobs.Retries)
		}
	}
}
