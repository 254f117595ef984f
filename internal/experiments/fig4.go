package experiments

import (
	"fmt"

	"presp/internal/accel"
	"presp/internal/reconfig"
	"presp/internal/report"
	"presp/internal/wami"
)

// Fig4SoC is the runtime evaluation of one WAMI SoC.
type Fig4SoC struct {
	Name string
	// Tiles is the reconfigurable tile count.
	Tiles int
	// TimePerFrame is the steady-state frame latency in seconds.
	TimePerFrame float64
	// EnergyPerFrame is the steady-state energy in Joules per frame.
	EnergyPerFrame float64
	// Reconfigurations counts partial reconfigurations over the run.
	Reconfigurations int
	// ReconfigTime is the cumulative reconfiguration latency (s).
	ReconfigTime float64
	// CPUFallbacks counts kernels executed in software.
	CPUFallbacks int
	// Detections is the total change-detection pixel count (a
	// functional-correctness signal: the SoC actually found the moving
	// targets).
	Detections int
}

// Fig4Result reproduces the execution-time / energy-efficiency
// comparison of Fig 4.
type Fig4Result struct {
	SoCs []Fig4SoC
	// Frames and FrameEdge record the workload.
	Frames    int
	FrameEdge int
}

// Fig4Options tunes the runtime evaluation.
type Fig4Options struct {
	// Frames is the frame count (first frame is warm-up); 0 = 5.
	Frames int
	// FrameEdge is the frame edge length in pixels; 0 = 128.
	FrameEdge int
	// Runtime overrides the runtime configuration (nil = default).
	Runtime *reconfig.Config
	// Compress selects compressed partial bitstreams (the paper's
	// deployment); the ablation bench flips it off.
	Compress bool
}

// Fig4 runs the WAMI application on SoC_X, SoC_Y and SoC_Z.
func Fig4(opt Fig4Options) (*Fig4Result, error) {
	if opt.Frames == 0 {
		opt.Frames = 5
	}
	if opt.FrameEdge == 0 {
		opt.FrameEdge = wami.EvalFrameEdge
	}
	reg, err := registry()
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{Frames: opt.Frames, FrameEdge: opt.FrameEdge}
	for _, name := range wami.RuntimeSoCNames() {
		soc, err := runFig4SoC(name, reg, opt)
		if err != nil {
			return nil, err
		}
		res.SoCs = append(res.SoCs, *soc)
	}
	return res, nil
}

// runFig4SoC boots one runtime SoC and runs the evaluation scene on it.
func runFig4SoC(name string, reg *accel.Registry, opt Fig4Options) (*Fig4SoC, error) {
	cfg, alloc, err := wami.RuntimeSoC(name)
	if err != nil {
		return nil, err
	}
	rcfg := reconfig.DefaultConfig()
	if opt.Runtime != nil {
		rcfg = *opt.Runtime
	}
	rt, _, err := wami.Boot(cfg, alloc, reg, nil, rcfg, opt.Compress)
	if err != nil {
		return nil, err
	}
	pcfg := wami.DefaultPipelineConfig()
	pcfg.LKIterations = wami.EvalLKIterations
	runner, err := wami.NewRunner(rt, alloc, pcfg)
	if err != nil {
		return nil, err
	}
	src, err := wami.NewFrameSource(opt.FrameEdge, wami.EvalMotionX, wami.EvalMotionY, wami.EvalTargets)
	if err != nil {
		return nil, err
	}
	rep, err := runner.ProcessFrames(src, opt.Frames)
	if err != nil {
		return nil, fmt.Errorf("experiments: Fig 4 run on %s: %w", name, err)
	}
	soc := &Fig4SoC{
		Name:             name,
		Tiles:            len(alloc),
		TimePerFrame:     rep.TimePerFrame(),
		EnergyPerFrame:   rep.EnergyPerFrame(),
		Reconfigurations: rep.Stats.Reconfigurations,
		ReconfigTime:     rep.Stats.ReconfigTime.Seconds(),
		CPUFallbacks:     rep.Stats.CPUFallbacks,
	}
	for _, f := range rep.Frames {
		soc.Detections += f.Detections
	}
	return soc, nil
}

// SoC returns the named SoC's runtime evaluation.
func (r *Fig4Result) SoC(name string) (*Fig4SoC, error) {
	for i := range r.SoCs {
		if r.SoCs[i].Name == name {
			return &r.SoCs[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: Fig 4 has no SoC %q", name)
}

// Render builds the Fig 4 comparison table.
func (r *Fig4Result) Render() *report.Table {
	t := report.New(
		fmt.Sprintf("Fig 4 — execution time and energy efficiency (%d frames of %dx%d)", r.Frames, r.FrameEdge, r.FrameEdge),
		"SoC", "tiles", "time/frame (s)", "J/frame", "reconfigs", "reconf time (s)", "CPU kernels", "detections")
	for _, s := range r.SoCs {
		t.AddRow(s.Name, s.Tiles,
			fmt.Sprintf("%.4f", s.TimePerFrame),
			fmt.Sprintf("%.3f", s.EnergyPerFrame),
			s.Reconfigurations,
			fmt.Sprintf("%.3f", s.ReconfigTime),
			s.CPUFallbacks,
			s.Detections)
	}
	return t
}
