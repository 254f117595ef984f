// Command presp-flow runs the PR-ESP FPGA flow on a SoC configuration:
// parse, split, parallel out-of-context synthesis, floorplanning, the
// size-driven strategy choice, orchestrated P&R and bitstream
// generation — the single-make-target experience of the paper.
//
// Usage:
//
//	presp-flow -preset SOC_2                 # a built-in configuration
//	presp-flow -config my_soc.json           # a JSON tile-grid config
//	presp-flow -preset SoC_A -strategy serial -baseline both
//	presp-flow -preset SOC_2 -timeout 30s   # bounds the whole command
//	presp-flow -preset SOC_2 -cache-dir ~/.cache/presp  # persistent warm starts
//	presp-flow -preset SOC_2 -faults 'seed=7,synth=0.2' -retries 2
//
// Presets: SOC_1..SOC_4 (characterization), SoC_A..SoC_D (WAMI flow
// evaluation), SoC_X/SoC_Y/SoC_Z (WAMI runtime systems).
//
// The run is interruptible: SIGINT/SIGTERM, or -timeout — one deadline
// for the main run and any -baseline runs together — stop it at the
// next job boundary. With -cache-dir, every finished synthesis is
// already on disk, so rerunning the same command resumes the run:
// finished work is served from the cache instead of recomputed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"presp/internal/cliutil"
	"presp/internal/core"
	"presp/internal/experiments"
	"presp/internal/faultinject"
	"presp/internal/flow"
	"presp/internal/fpga"
	"presp/internal/obs"
	"presp/internal/report"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

// cliOptions is the parsed, validated command line.
type cliOptions struct {
	preset      string
	configPath  string
	strategy    string
	tau         int
	compress    bool
	baseline    string
	scripts     bool
	workers     int
	timeout     time.Duration
	retries     int
	errorPolicy flow.ErrorPolicy
	faultPlan   *faultinject.Plan
	cacheDir    string
	tracePath   string
	metricsPath string
	pprofAddr   string
}

// parseCLI parses and validates argv (without the program name). It is
// side-effect free so tests can drive it directly.
func parseCLI(args []string) (*cliOptions, error) {
	fs := flag.NewFlagSet("presp-flow", flag.ContinueOnError)
	o := &cliOptions{}
	var cu cliutil.Flags
	var policy string
	fs.StringVar(&o.preset, "preset", "", "built-in SoC (SOC_1..SOC_4, SoC_A..SoC_D, SoC_X/Y/Z)")
	fs.StringVar(&o.configPath, "config", "", "path to a JSON SoC configuration")
	fs.StringVar(&o.strategy, "strategy", "", "force a strategy: serial, semi, fully (default: size-driven choice)")
	fs.IntVar(&o.tau, "tau", core.DefaultSemiTau, "semi-parallel degree, for a forced semi strategy or the size-driven choice")
	fs.BoolVar(&o.compress, "compress", true, "compress bitstreams")
	fs.StringVar(&o.baseline, "baseline", "", "also run a baseline: mono, dfx or both")
	fs.BoolVar(&o.scripts, "scripts", false, "print the auto-generated CAD scripts")
	fs.IntVar(&o.retries, "retries", 0, "retry failed jobs up to N times with capped virtual-time backoff")
	fs.StringVar(&policy, "error-policy", "fail-fast", "job-failure policy: fail-fast or collect")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	cu.RegisterWorkers(fs, "workers")
	cu.RegisterTimeout(fs)
	cu.RegisterFaults(fs, "seed=7,synth@rt_1:count=1,impl=0.3")
	cu.RegisterTrace(fs, "")
	cu.RegisterMetrics(fs)
	cu.RegisterCacheDir(fs, "later runs against the same directory warm-start")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := cu.Finish(fs); err != nil {
		return nil, err
	}
	if err := cu.FaultPlan.ForFlow(); err != nil {
		return nil, err
	}
	o.workers, o.timeout, o.faultPlan = cu.Workers, cu.Timeout, cu.FaultPlan
	o.tracePath, o.metricsPath, o.cacheDir = cu.Trace, cu.Metrics, cu.CacheDir
	if o.retries < 0 {
		return nil, fmt.Errorf("-retries must be >= 0, got %d", o.retries)
	}
	switch policy {
	case "fail-fast":
		o.errorPolicy = flow.FailFast
	case "collect":
		o.errorPolicy = flow.Collect
	default:
		return nil, fmt.Errorf("unknown error policy %q (want fail-fast or collect)", policy)
	}
	return o, nil
}

func main() {
	o, err := parseCLI(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "presp-flow:", err)
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancel the flow at the next job boundary; the
	// disk tier (if any) keeps every synthesis finished so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "presp-flow:", err)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if o.cacheDir != "" {
				fmt.Fprintf(os.Stderr, "presp-flow: finished synthesis is cached; rerun with -cache-dir %s to resume\n", o.cacheDir)
			} else {
				fmt.Fprintln(os.Stderr, "presp-flow: rerun with -cache-dir <dir> to make an interrupted run resumable")
			}
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, o *cliOptions) error {
	if o.timeout > 0 {
		// One bound for the whole command: the main run and every
		// baseline share it.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	cfg, err := loadConfig(o.preset, o.configPath)
	if err != nil {
		return err
	}
	d, err := experiments.ElaborateConfig(cfg)
	if err != nil {
		return err
	}
	if o.pprofAddr != "" {
		addr, stop, err := obs.StartPprof(o.pprofAddr)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Printf("pprof: serving on http://%s/debug/pprof/\n", addr)
	}
	var observer *obs.Observer
	if o.tracePath != "" || o.metricsPath != "" {
		observer = obs.New()
	}
	cache := vivado.NewCheckpointCache()
	opt := flow.Options{
		SemiTau:       o.tau,
		Compress:      o.compress,
		Workers:       o.workers,
		Cache:         cache,
		StageCache:    vivado.NewStageCache(),
		MaxJobRetries: o.retries,
		ErrorPolicy:   o.errorPolicy,
		FaultPlan:     o.faultPlan,
		Observer:      observer,
	}
	if o.strategy != "" {
		kind, err := core.ParseStrategyKind(o.strategy)
		if err != nil {
			return err
		}
		strat, err := core.ForceStrategy(d, kind, o.tau)
		if err != nil {
			return err
		}
		opt.Strategy = strat
	}
	if o.cacheDir != "" {
		// The persistent tier: every synthesis reaches disk before its
		// job completes, and the flow shares the tier with the stage
		// cache, so a rerun over the same directory resumes.
		store, err := vivado.OpenDiskStore(o.cacheDir)
		if err != nil {
			return err
		}
		store.SetObserver(observer)
		cache.SetDiskStore(store)
	}
	res, err := flow.RunPRESP(ctx, d, opt)
	if err != nil {
		return err
	}
	printResult(res)
	if ds := cache.Disk(); ds != nil {
		st := ds.Stats()
		fmt.Printf("disk cache %s: %d entries (%d KB), %d hits / %d misses / %d writes",
			ds.Dir(), st.Entries, st.Bytes/1024, st.Hits, st.Misses, st.Writes)
		if st.Corrupt > 0 {
			fmt.Printf(", %d quarantined", st.Corrupt)
		}
		fmt.Println()
	}
	if o.scripts && res.Scripts != nil {
		printScripts(res.Scripts)
	}

	// Baselines run unobserved: the exported trace describes exactly
	// the main flow, so its span count matches res.Jobs.
	baseOpt := opt
	baseOpt.Observer = nil
	switch o.baseline {
	case "":
	case "mono":
		err = printBaseline(ctx, "monolithic", flow.RunMonolithic, d, baseOpt, res)
	case "dfx":
		err = printBaseline(ctx, "standard DFX", flow.RunStandardDFX, d, baseOpt, res)
	case "both":
		if err = printBaseline(ctx, "monolithic", flow.RunMonolithic, d, baseOpt, res); err == nil {
			err = printBaseline(ctx, "standard DFX", flow.RunStandardDFX, d, baseOpt, res)
		}
	default:
		err = fmt.Errorf("unknown baseline %q (want mono, dfx or both)", o.baseline)
	}
	if err != nil {
		return err
	}
	return writeObservations(observer, o)
}

// writeObservations exports the run's trace and metrics files.
func writeObservations(observer *obs.Observer, o *cliOptions) error {
	if observer == nil {
		return nil
	}
	if o.tracePath != "" {
		if err := writeTo(o.tracePath, observer.Tracer().WriteJSON); err != nil {
			return err
		}
		fmt.Printf("trace: %d events written to %s (open at https://ui.perfetto.dev)\n",
			observer.Tracer().Len(), o.tracePath)
	}
	if o.metricsPath != "" {
		if err := writeTo(o.metricsPath, observer.Metrics().WriteJSON); err != nil {
			return err
		}
		fmt.Printf("metrics: written to %s\n", o.metricsPath)
	}
	return nil
}

func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadConfig(preset, configPath string) (*socgen.Config, error) {
	switch {
	case preset != "" && configPath != "":
		return nil, fmt.Errorf("-preset and -config are mutually exclusive")
	case configPath != "":
		data, err := os.ReadFile(configPath)
		if err != nil {
			return nil, err
		}
		return socgen.ParseConfig(data)
	case preset != "":
		cfg, err := experiments.PresetConfig(preset)
		if err != nil {
			return nil, err
		}
		return cfg, nil
	default:
		return nil, fmt.Errorf("need -preset or -config (try -preset SOC_2)")
	}
}

func printResult(res *flow.Result) {
	d := res.Design
	m := res.Strategy.Metrics
	fmt.Printf("SoC %s on %s (%s)\n", d.Cfg.Name, d.Dev.Board, d.Dev.Name)
	fmt.Printf("  static part: %s\n", d.StaticResources)
	fmt.Printf("  reconfigurable: %d partitions, %s\n", len(d.RPs), d.ReconfigurableResources())
	fmt.Printf("  metrics: κ=%.3f α_av=%.3f γ=%.3f -> class %s -> %s (τ=%d)\n",
		m.Kappa, m.AlphaAv, m.Gamma, res.Strategy.Class, res.Strategy.Kind, res.Strategy.Tau)

	t := report.New("flow timing (modelled minutes)", "stage", "time")
	t.AddRow("synthesis (parallel OoC)", report.Minutes(float64(res.SynthWall)))
	if res.Strategy.Kind != core.Serial {
		t.AddRow("static pre-route", report.Minutes(float64(res.TStatic)))
		t.AddRow("max in-context run", report.Minutes(float64(res.MaxOmega)))
	}
	t.AddRow("P&R wall", report.Minutes(float64(res.PRWall)))
	t.AddRow("bitstream generation", report.Minutes(float64(res.BitgenWall)))
	t.AddRow("total (synth+P&R)", report.Minutes(float64(res.Total)))
	fmt.Println(t)

	j := res.Jobs
	fmt.Printf("scheduler: %d workers, %d synth + %d plan + %d impl + %d bitgen jobs",
		j.Workers, j.SynthJobs, j.PlanJobs, j.ImplJobs, j.BitgenJobs)
	if j.Retries > 0 {
		fmt.Printf(", %d retries", j.Retries)
	}
	if j.CacheHits+j.CacheMisses > 0 {
		fmt.Printf(", checkpoint cache %d hits / %d misses", j.CacheHits, j.CacheMisses)
	}
	fmt.Println()
	if j.Skipped > 0 || j.StageCacheMisses > 0 {
		fmt.Printf("incremental: %d stage jobs skipped from the artifact cache", j.Skipped)
		for _, st := range report.SortedKeys(j.SkippedByStage) {
			fmt.Printf(", %s %d", st, j.SkippedByStage[st])
		}
		fmt.Printf(" (%d probes missed)\n", j.StageCacheMisses)
	}

	if res.Partial {
		fmt.Printf("PARTIAL result: %d jobs failed, %d cancelled downstream\n",
			j.FailedJobs, j.Cancelled)
		for _, je := range res.JobErrors {
			fmt.Printf("  %s (%s, %d attempts): %v\n", je.ID, je.Stage, je.Attempts, je.Err)
		}
	}

	if res.Plan != nil {
		fmt.Println("floorplan:")
		for _, n := range report.SortedKeys(res.Plan.Pblocks) {
			pb := res.Plan.Pblocks[n]
			fmt.Printf("  %s (%d kLUT area)\n", pb, pb.ResourcesOn(d.Dev)[fpga.LUT]/1000)
		}
	}
	if res.FullBitstream != nil {
		fmt.Printf("bitstreams: full %.0f KB", res.FullBitstream.SizeKB())
		for _, bs := range res.PartialBitstreams {
			fmt.Printf(", %s %.0f KB", bs.Name, bs.SizeKB())
		}
		fmt.Println()
	}
}

type flowFunc func(context.Context, *socgen.Design, flow.Options) (*flow.Result, error)

func printBaseline(ctx context.Context, label string, f flowFunc, d *socgen.Design, opt flow.Options, presp *flow.Result) error {
	opt.Strategy = nil
	res, err := f(ctx, d, opt)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("baseline %s: %w", label, err)
		}
		return err
	}
	gain := (float64(res.Total) - float64(presp.Total)) / float64(res.Total)
	fmt.Printf("\nbaseline %s: synth %s, P&R %s, total %s (PR-ESP gain %s)\n",
		label,
		report.Minutes(float64(res.SynthWall)),
		report.Minutes(float64(res.PRWall)),
		report.Minutes(float64(res.Total)),
		report.Pct(gain))
	return nil
}

func printScripts(s *flow.Scripts) {
	fmt.Println("\n=== auto-generated scripts ===")
	for _, n := range report.SortedKeys(s.Synthesis) {
		fmt.Printf("--- synth_%s.tcl ---\n%s\n", n, s.Synthesis[n])
	}
	fmt.Printf("--- floorplan.xdc ---\n%s\n", s.FloorplanXDC)
	for _, n := range report.SortedKeys(s.Implementation) {
		fmt.Printf("--- impl_%s.tcl ---\n%s\n", n, s.Implementation[n])
	}
	fmt.Printf("--- Makefile ---\n%s\n", s.Makefile)
}
