// Command presp-sim runs the WAMI application on a runtime SoC under
// the reconfiguration manager and reports per-frame timing, energy and
// reconfiguration behaviour (the Fig 4 machinery, exposed for
// exploration).
//
// Usage:
//
//	presp-sim -soc SoC_Y -frames 10 -edge 128
//	presp-sim -soc SoC_Z -no-compress     # compression ablation
//	presp-sim -faults 'seed=7,icap=0.2,crc=0.1'   # seeded fault storm
//	presp-sim -faults 'seed=7,seu@t0=0.01' -scrub-interval 500us  # SEU + scrubber
//	presp-sim -soc SoC_Z -trace run.json  # Chrome trace of the runtime
//
// With -trace, the run records every partial reconfiguration (with its
// DMA-fetch and ICAP sub-spans), retries, dead-tile declarations and
// power-rail levels as a Chrome trace-event file in virtual time —
// open it at https://ui.perfetto.dev.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"presp/internal/cliutil"
	"presp/internal/faultinject"
	"presp/internal/noc"
	"presp/internal/obs"
	"presp/internal/reconfig"
	"presp/internal/report"
	"presp/internal/wami"
)

// cliOptions is the parsed, validated command line.
type cliOptions struct {
	soc           string
	frames        int
	edge          int
	iters         int
	compress      bool
	scrubInterval time.Duration
	faultPlan     *faultinject.Plan
	tracePath     string
}

// parseCLI parses and validates argv (without the program name). It is
// side-effect free so tests can drive it directly.
func parseCLI(args []string) (*cliOptions, error) {
	fs := flag.NewFlagSet("presp-sim", flag.ContinueOnError)
	o := &cliOptions{}
	var cu cliutil.Flags
	var noCompress bool
	fs.StringVar(&o.soc, "soc", "SoC_Y", "runtime SoC: SoC_X, SoC_Y or SoC_Z")
	fs.IntVar(&o.frames, "frames", 6, "frame count (first frame is warm-up)")
	fs.IntVar(&o.edge, "edge", wami.EvalFrameEdge, "frame edge length in pixels")
	fs.IntVar(&o.iters, "lk-iters", wami.EvalLKIterations, "Lucas-Kanade iterations per frame")
	fs.BoolVar(&noCompress, "no-compress", false, "disable bitstream compression")
	fs.DurationVar(&o.scrubInterval, "scrub-interval", 0,
		"configuration-memory scrub period in virtual time (e.g. 500us); 0 disables the scrubber")
	cu.RegisterFaults(fs, "seed=7,icap=0.2,crc@rt_2=0.1,transfer@dma:after=3:count=1")
	cu.RegisterTrace(fs, "virtual time")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := cu.Finish(fs); err != nil {
		return nil, err
	}
	if err := cu.FaultPlan.ForRuntime(); err != nil {
		return nil, err
	}
	o.faultPlan, o.tracePath = cu.FaultPlan, cu.Trace
	o.compress = !noCompress
	if o.frames < 1 {
		return nil, fmt.Errorf("-frames must be >= 1, got %d", o.frames)
	}
	if o.scrubInterval < 0 {
		return nil, fmt.Errorf("-scrub-interval must be >= 0, got %v", o.scrubInterval)
	}
	return o, nil
}

func main() {
	o, err := parseCLI(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "presp-sim:", err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "presp-sim:", err)
		os.Exit(1)
	}
}

func run(o *cliOptions, w io.Writer) error {
	cfg, alloc, err := wami.RuntimeSoC(o.soc)
	if err != nil {
		return err
	}
	reg, err := wami.Registry()
	if err != nil {
		return err
	}
	rcfg := reconfig.DefaultConfig()
	rcfg.FaultPlan = o.faultPlan
	rcfg.ScrubInterval = o.scrubInterval
	// The observer traces the runtime only: runtime spans carry virtual
	// timestamps, which must not share a tracer with the wall-clock
	// flow that generates the bitstreams.
	var observer *obs.Observer
	if o.tracePath != "" {
		observer = obs.New()
		rcfg.Observer = observer
	}
	rt, bss, err := wami.Boot(cfg, alloc, reg, nil, rcfg, o.compress)
	if err != nil {
		return err
	}
	// Sum in sorted order: the float sum must not depend on map
	// iteration order.
	var stagedKB float64
	nImages := 0
	for _, tileName := range report.SortedKeys(bss) {
		for _, acc := range report.SortedKeys(bss[tileName]) {
			stagedKB += bss[tileName][acc].SizeKB()
			nImages++
		}
	}
	pcfg := wami.DefaultPipelineConfig()
	pcfg.LKIterations = o.iters
	runner, err := wami.NewRunner(rt, alloc, pcfg)
	if err != nil {
		return err
	}
	src, err := wami.NewFrameSource(o.edge, wami.EvalMotionX, wami.EvalMotionY, wami.EvalTargets)
	if err != nil {
		return err
	}
	rep, err := runner.ProcessFrames(src, o.frames)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%s: %d reconfigurable tiles, %d staged bitstreams (%.0f KB, compress=%v)\n",
		o.soc, len(alloc), nImages, stagedKB, o.compress)
	missing := wami.MissingKernels(alloc)
	if len(missing) > 0 {
		fmt.Fprintf(w, "kernels on CPU fallback: %v\n", missing)
	}
	t := report.New("per-frame results", "frame", "time (ms)", "energy (J)", "reconfigs", "LK iters", "detections")
	for i, f := range rep.Frames {
		t.AddRow(i, fmt.Sprintf("%.2f", f.Time.Seconds()*1000), fmt.Sprintf("%.3f", f.Energy),
			f.Reconfigurations, f.LKIters, f.Detections)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "steady state: %.4f s/frame, %.3f J/frame; %d reconfigurations (%.3f s total), %d CPU kernels\n",
		rep.TimePerFrame(), rep.EnergyPerFrame(),
		rep.Stats.Reconfigurations, rep.Stats.ReconfigTime.Seconds(), rep.Stats.CPUFallbacks)
	if o.faultPlan != nil {
		st := rt.Stats()
		fmt.Fprintf(w, "fault injection: %d injected; %d failed reconfigurations, %d retries, %d prefetch errors, %d dead tiles\n",
			rt.FaultsInjected(), st.FailedReconfigs, st.Retries, st.PrefetchErrors, st.DeadTiles)
		for _, name := range rt.Tiles() {
			if dead, _ := rt.Dead(name); dead {
				fmt.Fprintf(w, "  tile %s declared dead — its kernels degraded to the processor\n", name)
			}
		}
	}
	if o.scrubInterval > 0 {
		ss := rt.ScrubStats()
		fmt.Fprintf(w, "scrubber: %d cycles, %d upsets injected; %d detected, %d repaired, %d healed, %d uncorrectable\n",
			ss.Cycles, ss.Upsets, ss.Detected, ss.Repaired, ss.Healed, ss.Uncorrectable)
		for _, name := range rt.Tiles() {
			if h, err := rt.ConfigHealth(name); err == nil && h.Corrupted {
				fmt.Fprintf(w, "  tile %s config memory still corrupted (%d upset bits in %d frames)\n",
					name, h.UpsetBits, h.UpsetFrames)
			}
		}
	}
	bd := rt.Meter().Breakdown()
	fmt.Fprintln(w, "energy breakdown (J):")
	for _, name := range rt.Meter().Consumers() {
		if bd[name] > 0.0005 {
			fmt.Fprintf(w, "  %-14s %.3f\n", name, bd[name])
		}
	}
	fmt.Fprintln(w, "NoC plane traffic (flits):")
	for p := noc.Plane(0); p < noc.NumPlanes; p++ {
		ps := rt.Network().PlaneStats(p)
		if ps.TotalFlits > 0 {
			fmt.Fprintf(w, "  %-10s %d\n", p, ps.TotalFlits)
		}
	}
	tl := rt.Timeline()
	if n := len(tl); n > 0 {
		fmt.Fprintf(w, "last reconfigurations (%d total):\n", n)
		for _, ev := range tl[max(0, n-5):] {
			status := ""
			if ev.Failed {
				status = fmt.Sprintf("  FAILED after %d attempts: %s", ev.Attempts, ev.Err)
			} else if ev.Attempts > 1 {
				status = fmt.Sprintf("  (recovered on attempt %d)", ev.Attempts)
			}
			fmt.Fprintf(w, "  %-8v %-5s <- %-16s %4d KB in %v%s\n",
				ev.Start.Truncate(time.Microsecond), ev.Tile, ev.Accel, ev.Bytes/1024, ev.End-ev.Start, status)
		}
	}
	if observer != nil {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return err
		}
		if err := observer.Tracer().WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace: %d events written to %s (virtual time; open at https://ui.perfetto.dev)\n",
			observer.Tracer().Len(), o.tracePath)
	}
	return nil
}
