package wami

import (
	"fmt"
	"math"
)

// PipelineConfig tunes the frame-processing application.
type PipelineConfig struct {
	// LKIterations bounds the Lucas-Kanade refinement loop.
	LKIterations int
	// LKEpsilon is the convergence threshold on ‖Δp‖.
	LKEpsilon float64
}

// The Change-Detection kernel's fixed inputs.
const (
	// cdThreshold is the change-detection intensity threshold.
	cdThreshold = 25
	// cdAlpha is the background update rate.
	cdAlpha = 0.12
)

// DefaultPipelineConfig returns the evaluation configuration.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		LKIterations: 8,
		LKEpsilon:    1e-3,
	}
}

// The runtime evaluation of Fig 4 and Table VI. Its scene is
// EvalFrameEdge-pixel frames panning by (EvalMotionX, EvalMotionY)
// pixels per frame with EvalTargets moving targets. It bounds the
// Lucas-Kanade loop at one inverse-compositional iteration per frame:
// inter-frame motion is sub-pixel, and each accelerator is then loaded
// exactly once per frame, matching Table VI's one-bitstream-per-kernel
// accounting.
const (
	EvalFrameEdge    = 128
	EvalMotionX      = 0.7
	EvalMotionY      = -0.4
	EvalTargets      = 3
	EvalLKIterations = 1
)

// FrameResult is the product of processing one frame.
type FrameResult struct {
	// Gray is the demosaiced grayscale frame.
	Gray *Image
	// Registered is the frame warped into the reference coordinate
	// system.
	Registered *Image
	// Motion is the estimated affine warp w.r.t. the previous frame.
	Motion Affine
	// LKIters is the Lucas-Kanade iteration count used.
	LKIters int
	// Mask is the change-detection output.
	Mask *Image
	// Detections is the flagged pixel count.
	Detections int
}

// Pipeline is the software (golden) implementation of the WAMI-App: the
// exact computation the accelerated SoCs perform, used both as the
// functional reference and as the CPU fallback for kernels without an
// allocated accelerator.
type Pipeline struct {
	cfg    PipelineConfig
	prev   *Image
	bg     *Image
	frames int
}

// NewPipeline builds a pipeline with config cfg.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if cfg.LKIterations <= 0 {
		return nil, fmt.Errorf("wami: LK iteration bound must be positive")
	}
	return &Pipeline{cfg: cfg}, nil
}

// FramesProcessed returns the number of frames consumed so far.
func (p *Pipeline) FramesProcessed() int { return p.frames }

// Process runs one Bayer frame through the full application.
func (p *Pipeline) Process(mosaic *Image) (*FrameResult, error) {
	r, g, b := Debayer(mosaic)
	gray := Grayscale(r, g, b)
	res := &FrameResult{Gray: gray}

	if p.prev == nil {
		// First frame: initialize reference and background.
		p.prev = gray
		p.bg = gray.Clone()
		res.Registered = gray
		res.Mask = NewImage(gray.N)
		p.frames++
		return res, nil
	}

	motion, iters, err := LucasKanade(p.prev, gray, p.cfg.LKIterations, p.cfg.LKEpsilon)
	if err != nil {
		return nil, fmt.Errorf("wami: frame %d registration: %w", p.frames, err)
	}
	res.Motion = motion
	res.LKIters = iters
	res.Registered = Warp(gray, motion)

	mask, newBg := ChangeDetection(res.Registered, p.bg, cdThreshold, cdAlpha)
	res.Mask = mask
	for _, v := range mask.Pix {
		if v != 0 {
			res.Detections++
		}
	}
	p.bg = newBg
	p.prev = gray
	p.frames++
	return res, nil
}

// MotionError returns the Euclidean distance between the translation the
// pipeline estimated and the ground-truth per-frame motion (dx, dy) —
// the registration quality metric tests assert on. The estimated warp
// maps current-frame coordinates onto the previous frame, so its
// translation converges to (−dx, −dy).
func MotionError(m Affine, dx, dy float64) float64 {
	ex, ey := m[4]+dx, m[5]+dy
	return math.Hypot(ex, ey)
}
