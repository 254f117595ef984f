package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"presp/internal/experiments"
	"presp/internal/faultinject"
	"presp/internal/flow"
	"presp/internal/obs"
)

func TestParseCLIDefaults(t *testing.T) {
	o, err := parseCLI([]string{"-preset", "SOC_2"})
	if err != nil {
		t.Fatal(err)
	}
	if o.preset != "SOC_2" || !o.compress || o.workers != 0 || o.timeout != 0 ||
		o.retries != 0 || o.errorPolicy != flow.FailFast || o.faultPlan != nil {
		t.Fatalf("defaults wrong: %+v", o)
	}
}

func TestParseCLIWorkers(t *testing.T) {
	o, err := parseCLI([]string{"-preset", "SOC_1", "-workers", "7"})
	if err != nil || o.workers != 7 {
		t.Fatalf("workers=7 not accepted: %+v, %v", o, err)
	}
	if _, err := parseCLI([]string{"-preset", "SOC_1", "-workers", "-2"}); err == nil {
		t.Fatal("negative -workers accepted")
	}
	if _, err := parseCLI([]string{"-preset", "SOC_1", "-workers", "x"}); err == nil {
		t.Fatal("non-numeric -workers accepted")
	}
}

func TestParseCLIRobustnessFlags(t *testing.T) {
	o, err := parseCLI([]string{
		"-preset", "SOC_2",
		"-timeout", "90s",
		"-retries", "2",
		"-error-policy", "collect",
		"-faults", "seed=7,synth@rt_1_rp:count=1,impl=0.3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.timeout != 90*time.Second {
		t.Fatalf("timeout = %v", o.timeout)
	}
	if o.retries != 2 || o.errorPolicy != flow.Collect {
		t.Fatalf("parsed: %+v", o)
	}
	if o.faultPlan == nil || o.faultPlan.Seed != 7 || len(o.faultPlan.Rules) != 2 {
		t.Fatalf("fault plan = %+v", o.faultPlan)
	}
	if o.faultPlan.Rules[0].Op != faultinject.OpCADSynth {
		t.Fatalf("rule 0 = %+v", o.faultPlan.Rules[0])
	}
}

func TestParseCLIRejects(t *testing.T) {
	cases := [][]string{
		{"-error-policy", "lenient"},
		{"-faults", "frobnicate@x:count=1"},
		{"-faults", "synth:count=notanumber"},
		{"-faults", "seed=1,icap=1.0,crc=1.0"}, // runtime ops: the flow never checks them
		{"-faults", "seed=1,synth=0.5,seu@rt_1=0.1"},
		{"-retries", "-1"},
		{"-resume", "run.jsonl"},
		{"-journal", "run.jsonl"},
		{"-incremental=false"},
		{"-preset", "SOC_1", "stray-arg"},
		{"-no-such-flag"},
	}
	for _, args := range cases {
		if _, err := parseCLI(args); err == nil {
			t.Errorf("parseCLI(%q) accepted", args)
		}
	}
	if _, err := parseCLI([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
}

// TestParseCLICacheDir checks that -cache-dir threads through to the
// parsed options untouched.
func TestParseCLICacheDir(t *testing.T) {
	o, err := parseCLI([]string{"-preset", "SOC_1", "-cache-dir", "/tmp/ckpt"})
	if err != nil {
		t.Fatal(err)
	}
	if o.cacheDir != "/tmp/ckpt" {
		t.Fatalf("cacheDir = %q", o.cacheDir)
	}
}

// TestRunCacheDirWarmStart: two runs of the same preset against one
// -cache-dir; the second must leave the persisted entries untouched
// (same entry count, no new writes beyond run one's).
func TestRunCacheDirWarmStart(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		o, err := parseCLI([]string{"-preset", "SOC_1", "-cache-dir", dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := run(context.Background(), o); err != nil {
			t.Fatalf("run %d failed: %v", i, err)
		}
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no checkpoints persisted")
	}
	for _, e := range names {
		if strings.HasSuffix(e.Name(), ".bad") {
			t.Errorf("quarantined entry after clean runs: %s", e.Name())
		}
	}
}

// TestRunMissingConfig: run() rejects an empty selection and a
// preset/config conflict before doing any work.
func TestRunMissingConfig(t *testing.T) {
	o, err := parseCLI(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), o); err == nil || !strings.Contains(err.Error(), "-preset") {
		t.Fatalf("empty selection: %v", err)
	}
	o, err = parseCLI([]string{"-preset", "SOC_1", "-config", "x.json"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), o); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("conflicting selection: %v", err)
	}
}

// TestRunResumeFromCacheDir drives the whole binary logic end to end:
// a run with -cache-dir, then the same command again — the way an
// interrupted run resumes — which finds every synthesis the first run
// finished in the cache directory and persists nothing new.
func TestRunResumeFromCacheDir(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-preset", "SOC_1", "-cache-dir", dir + "/cache"}
	o, err := parseCLI(args)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("first run failed: %v", err)
	}
	ckpts, err := filepath.Glob(dir + "/cache/*.ckpt")
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoints persisted (err %v)", err)
	}
	if o, err = parseCLI(args); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("rerun failed: %v", err)
	}
	if again, _ := filepath.Glob(dir + "/cache/*.ckpt"); len(again) != len(ckpts) {
		t.Fatalf("rerun persisted new checkpoints: %d, was %d", len(again), len(ckpts))
	}
}

// TestRunCancelled: a cancelled context aborts the run with
// context.Canceled.
func TestRunCancelled(t *testing.T) {
	o, err := parseCLI([]string{"-preset", "SOC_1"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestRunCollectFaults: an injected persistent fault under -error-policy
// collect still completes the run (Partial result, exit 0).
func TestRunCollectFaults(t *testing.T) {
	o, err := parseCLI([]string{
		"-preset", "SOC_2",
		"-faults", "synth@rt_1_rp:count=-1",
		"-error-policy", "collect",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("collect run failed: %v", err)
	}
}

// TestRunWritesTraceAndMetrics: -trace and -metrics produce a valid
// Chrome trace (correctly nesting, one span per executed job) and a
// flat metrics JSON whose job counter agrees.
func TestRunWritesTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := dir+"/run.json", dir+"/metrics.json"
	o, err := parseCLI([]string{"-preset", "SOC_1", "-trace", tracePath, "-metrics", metricsPath})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("traced run failed: %v", err)
	}

	// An identical unobserved run tells us how many jobs the trace
	// must contain (the flow is deterministic).
	cfg, err := experiments.PresetConfig("SOC_1")
	if err != nil {
		t.Fatal(err)
	}
	d, err := experiments.ElaborateConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := flow.RunPRESP(context.Background(), d, flow.Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := obs.ParseTrace(data)
	if err != nil {
		t.Fatalf("trace is not valid Chrome trace JSON: %v", err)
	}
	if got, want := obs.CountSpans(tf.TraceEvents, "job"), ref.Jobs.Executed(); got != want {
		t.Fatalf("trace has %d job spans, want %d (= executed jobs)", got, want)
	}
	if err := obs.CheckNesting(tf.TraceEvents); err != nil {
		t.Fatalf("trace events do not nest: %v", err)
	}

	var metrics map[string]any
	mdata, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mdata, &metrics); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if got, want := metrics["flow_jobs_total"], float64(ref.Jobs.Executed()); got != want {
		t.Fatalf("flow_jobs_total = %v, want %v", got, want)
	}
}

// TestRunTauUnderChooser: -tau reaches the size-driven chooser, not only
// a forced semi strategy. SoC_C's chooser picks semi-parallel: at the
// default τ=2 without the flag, at τ=3 with -tau 3.
func TestRunTauUnderChooser(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "-> semi-parallel (τ=2)"},
		{[]string{"-tau", "3"}, "-> semi-parallel (τ=3)"},
	} {
		o, err := parseCLI(append([]string{"-preset", "SoC_C"}, c.args...))
		if err != nil {
			t.Fatal(err)
		}
		out := captureStdout(t, func() error { return run(context.Background(), o) })
		if !strings.Contains(out, c.want) {
			t.Errorf("presp-flow %v: output lacks %q:\n%s", c.args, c.want, out)
		}
	}
}

// TestRunRejectsTauOutOfRange: under the size-driven chooser an
// out-of-range -tau fails the run with the same error a forced
// -strategy semi gets, instead of falling back to τ=2.
func TestRunRejectsTauOutOfRange(t *testing.T) {
	for _, args := range [][]string{
		{"-tau", "99"},
		{"-tau", "1"},
		{"-strategy", "semi", "-tau", "99"},
	} {
		o, err := parseCLI(append([]string{"-preset", "SoC_C"}, args...))
		if err != nil {
			t.Fatal(err)
		}
		err = run(context.Background(), o)
		if err == nil || !strings.Contains(err.Error(), "must satisfy 1 < τ < N=4") {
			t.Errorf("presp-flow %v: err = %v, want the τ range error", args, err)
		}
	}
}

// captureStdout returns what fn prints to standard output.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
