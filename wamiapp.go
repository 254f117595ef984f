package presp

import (
	"fmt"

	"presp/internal/reconfig"
	"presp/internal/wami"
)

// WAMIOptions tunes a WAMI application run on a runtime SoC.
type WAMIOptions struct {
	// Frames is the frame count (first frame is warm-up); minimum 2.
	Frames int
	// FrameEdge is the frame edge length in pixels (min 16; 0 = 128).
	FrameEdge int
	// LKIterations bounds the Lucas-Kanade loop (0 = 1, the runtime
	// evaluation setting).
	LKIterations int
	// MotionX, MotionY is the per-frame ground-truth translation the
	// synthetic scene applies (0,0 = the default 0.7, -0.4).
	MotionX, MotionY float64
	// Targets is the moving-target count (0 = 3).
	Targets int
	// Compress selects compressed partial bitstreams.
	Compress bool
}

// WAMIFrame is one processed frame's results.
type WAMIFrame struct {
	// TimeSec and EnergyJ are the frame's latency and energy.
	TimeSec float64
	EnergyJ float64
	// Reconfigurations counts swaps during the frame.
	Reconfigurations int
	// Detections is the change-detection pixel count.
	Detections int
	// LKIters is the registration iteration count used.
	LKIters int
}

// WAMIReport aggregates a run.
type WAMIReport struct {
	SoC    string
	Frames []WAMIFrame
	// TimePerFrame / EnergyPerFrame are steady-state means.
	TimePerFrame   float64
	EnergyPerFrame float64
	// Reconfigurations / CPUFallbacks are run totals.
	Reconfigurations int
	CPUFallbacks     int
}

// RunWAMI executes the WAMI application on one of the runtime SoCs
// (SoC_X, SoC_Y, SoC_Z): it boots the SoC with its Table VI bitstreams
// on the platform's accelerator registry and cost model and processes
// the synthetic frame stream, exactly as the Fig 4 evaluation does.
func (p *Platform) RunWAMI(socName string, opt WAMIOptions) (*WAMIReport, error) {
	if opt.Frames < 2 {
		opt.Frames = 5
	}
	if opt.FrameEdge == 0 {
		opt.FrameEdge = wami.EvalFrameEdge
	}
	if opt.LKIterations == 0 {
		opt.LKIterations = wami.EvalLKIterations
	}
	if opt.MotionX == 0 && opt.MotionY == 0 {
		opt.MotionX, opt.MotionY = wami.EvalMotionX, wami.EvalMotionY
	}
	if opt.Targets == 0 {
		opt.Targets = wami.EvalTargets
	}
	cfg, alloc, err := wami.RuntimeSoC(socName)
	if err != nil {
		return nil, err
	}
	if err := p.checkBoard(cfg); err != nil {
		return nil, err
	}
	rt, _, err := wami.Boot(cfg, alloc, p.reg, p.model, reconfig.DefaultConfig(), opt.Compress)
	if err != nil {
		return nil, err
	}
	pcfg := wami.DefaultPipelineConfig()
	pcfg.LKIterations = opt.LKIterations
	runner, err := wami.NewRunner(rt, alloc, pcfg)
	if err != nil {
		return nil, err
	}
	src, err := wami.NewFrameSource(opt.FrameEdge, opt.MotionX, opt.MotionY, opt.Targets)
	if err != nil {
		return nil, err
	}
	rep, err := runner.ProcessFrames(src, opt.Frames)
	if err != nil {
		return nil, fmt.Errorf("presp: WAMI run on %s: %w", socName, err)
	}
	out := &WAMIReport{
		SoC:              socName,
		TimePerFrame:     rep.TimePerFrame(),
		EnergyPerFrame:   rep.EnergyPerFrame(),
		Reconfigurations: rep.Stats.Reconfigurations,
		CPUFallbacks:     rep.Stats.CPUFallbacks,
	}
	for _, f := range rep.Frames {
		out.Frames = append(out.Frames, WAMIFrame{
			TimeSec:          f.Time.Seconds(),
			EnergyJ:          f.Energy,
			Reconfigurations: f.Reconfigurations,
			Detections:       f.Detections,
			LKIters:          f.LKIters,
		})
	}
	return out, nil
}
