package wami

import (
	"fmt"
	"math"

	"presp/internal/reconfig"
	"presp/internal/report"
	"presp/internal/sim"
)

// Runner is the multi-threaded control software of Section VI: it maps
// the Fig 3 dataflow onto the reconfigurable tiles of a runtime SoC
// (one logical control thread per tile, modelled as concurrent event
// chains), requests reconfigurations through the manager when a tile
// must swap kernels, and falls back to the processor for kernels the
// Table VI partitioning leaves unallocated. Frames are processed
// without pipelining, as in the paper's evaluation.
//
// The runner owns every plane a kernel returns to it and hands each one
// back to the package's free list once the plane's last consumer has
// finished, as an ESP application reuses its one accelerator buffer
// across invocations: the mosaic after Debayer, the colour planes after
// Grayscale, the gradients after Steepest-Descent, the error image after
// SD-Update, the SD-update planes after Mult, a warped image the loop
// iterates past, and the rest of the frame's planes in detect.
//
// Frame synthesis is host work the simulated SoC never sees, so
// ProcessFrames renders the batch's mosaics on a second goroutine,
// ahead of the front-ends that take them, while the engine, the
// manager and the kernels run on the caller's. A mosaic belongs to the
// producer until it is received and to the runner from then on; the
// frames nobody received go back to the free list before ProcessFrames
// returns. The virtual-time schedule is the same either way: only host
// work overlaps.
type Runner struct {
	rt *reconfig.Runtime
	// tileOf maps each kernel index to the tile hosting it, "" for a
	// kernel left to the CPU.
	tileOf [NumKernels + 1]string
	// hosted flags, per tile, the kernel indices its allocation holds.
	hosted map[string][NumKernels + 1]bool
	cfg    PipelineConfig

	prev *Image
	bg   *Image
}

// FrameStats records one frame's execution.
type FrameStats struct {
	// Time is the frame latency.
	Time sim.Time
	// Energy is the frame's energy in Joules.
	Energy float64
	// Reconfigurations counts partial reconfigurations in the frame.
	Reconfigurations int
	// Detections is the change-detection pixel count.
	Detections int
	// MotionErr is the registration error against ground truth (pixels).
	MotionErr float64
	// LKIters is the Lucas-Kanade iteration count used.
	LKIters int
}

// RunReport aggregates a multi-frame run.
type RunReport struct {
	SoC    string
	Frames []FrameStats
	// TotalTime and TotalEnergy cover the steady-state frames (the
	// warm-up frame 0 only initializes reference state).
	TotalTime   sim.Time
	TotalEnergy float64
	// Stats is the runtime's final counter snapshot.
	Stats reconfig.Stats
}

// TimePerFrame returns the mean steady-state frame latency in seconds.
func (r *RunReport) TimePerFrame() float64 {
	n := len(r.Frames) - 1
	if n <= 0 {
		return 0
	}
	return r.TotalTime.Seconds() / float64(n)
}

// EnergyPerFrame returns the mean steady-state energy per frame (J).
func (r *RunReport) EnergyPerFrame() float64 {
	n := len(r.Frames) - 1
	if n <= 0 {
		return 0
	}
	return r.TotalEnergy / float64(n)
}

// NewRunner builds a runner for runtime rt with allocation alloc. Each
// kernel may be allocated to one tile at most.
func NewRunner(rt *reconfig.Runtime, alloc Allocation, cfg PipelineConfig) (*Runner, error) {
	if rt == nil {
		return nil, fmt.Errorf("wami: nil runtime")
	}
	if len(alloc) == 0 {
		return nil, fmt.Errorf("wami: empty allocation")
	}
	r := &Runner{rt: rt, hosted: make(map[string][NumKernels + 1]bool, len(alloc)), cfg: cfg}
	for _, tileName := range report.SortedKeys(alloc) {
		var set [NumKernels + 1]bool
		for _, idx := range alloc[tileName] {
			if _, ok := Names[idx]; !ok {
				return nil, fmt.Errorf("wami: allocation of tile %s references unknown kernel %d", tileName, idx)
			}
			if other := r.tileOf[idx]; other != "" && other != tileName {
				return nil, fmt.Errorf("wami: kernel %s is allocated to both %s and %s", Names[idx], other, tileName)
			}
			r.tileOf[idx] = tileName
			set[idx] = true
		}
		r.hosted[tileName] = set
	}
	if cfg.LKIterations <= 0 {
		return nil, fmt.Errorf("wami: LK iteration bound must be positive")
	}
	return r, nil
}

// frame-order phases used by the prefetcher to predict each tile's next
// kernel.
var (
	prefixOrder = []int{KDebayer, KGrayscale, KGradient, KSteepestDescent, KHessian, KMatrixInvert}
	loopOrder   = []int{KWarpImg, KSubtract, KSDUpdate, KMult, KReshapeAdd}
)

// nextOnTile predicts the next kernel the tile will host after finishing
// kernel k, following the frame execution order (front-end and setup
// prefix, then the iteration loop cyclically, then change detection and
// the next frame's prefix). Returns 0 when the tile keeps its kernel.
func (r *Runner) nextOnTile(tileName string, k int) int {
	hosted := r.hosted[tileName]
	scan := func(order []int, from int) int {
		for i := from; i < len(order); i++ {
			if hosted[order[i]] {
				return order[i]
			}
		}
		return 0
	}
	pos := func(order []int, k int) int {
		for i, v := range order {
			if v == k {
				return i
			}
		}
		return -1
	}
	if i := pos(prefixOrder, k); i >= 0 {
		if n := scan(prefixOrder, i+1); n != 0 {
			return n
		}
		if n := scan(loopOrder, 0); n != 0 {
			return n
		}
		if hosted[KChangeDetection] {
			return KChangeDetection
		}
		return 0
	}
	if i := pos(loopOrder, k); i >= 0 {
		if n := scan(loopOrder, i+1); n != 0 {
			return n
		}
		// The tile hosts no later loop kernel this iteration. Either the
		// loop wraps (another iteration) or the frame ends; predicting
		// the next frame's prefix is right whenever the tile hosts a
		// prefix kernel (the wrap costs one extra swap at most when the
		// loop actually iterates).
		if n := scan(prefixOrder, 0); n != 0 {
			return n
		}
		if hosted[KChangeDetection] {
			return KChangeDetection
		}
		if n := scan(loopOrder, 0); n != 0 && n != k {
			return n
		}
		return 0
	}
	// Change detection: the next frame starts over with the prefix.
	if n := scan(prefixOrder, 0); n != 0 {
		return n
	}
	return 0
}

// dispatch runs kernel idx on its allocated tile, or on the CPU when the
// partitioning leaves it unallocated. After a tile finishes a kernel the
// runner prefetches the tile's predicted next bitstream, overlapping the
// reconfiguration with work elsewhere in the dataflow.
func (r *Runner) dispatch(idx int, in [][]float64, done func(*reconfig.InvokeResult, error)) {
	tileName := r.tileOf[idx]
	if tileName == "" {
		r.rt.RunOnCPU(Names[idx], in, done)
		return
	}
	r.rt.InvokeOn(tileName, Names[idx], in, func(res *reconfig.InvokeResult, err error) {
		if err != nil {
			// The tile invocation failed — a reconfiguration error the
			// manager's retries could not absorb, or an injected
			// datapath fault. Degrade this invocation to the processor
			// instead of failing the frame; a genuinely broken kernel
			// still surfaces its error from the software run.
			r.rt.RunOnCPU(Names[idx], in, done)
			return
		}
		if next := r.nextOnTile(tileName, idx); next != 0 && next != idx {
			r.rt.Prefetch(tileName, Names[next])
		}
		done(res, err)
	})
}

// renderAhead starts the producer of frames first … first+n-1 of src,
// where first is src's current index, and returns the channel they
// arrive on in order. Once a frame is sent, the receiver owns its
// plane. stop makes the producer quit, hands every frame it rendered
// that nobody received back to the free list, and returns only after
// the producer has closed the channel as its last act.
func renderAhead(src *FrameSource, n int) (frames <-chan *Image, stop func()) {
	out := make(chan *Image, 1)
	quit := make(chan struct{})
	first := src.frame
	go func() {
		defer close(out)
		for idx := first; idx < first+n; idx++ {
			img := src.render(idx)
			select {
			case out <- img:
			case <-quit:
				releasePix(img.Pix)
				return
			}
		}
	}()
	return out, func() {
		close(quit)
		for img := range out {
			releasePix(img.Pix)
		}
	}
}

// ProcessFrames runs n frames from src through the SoC and returns the
// per-frame report. It drives the simulation engine to completion. On
// return, src has advanced by the frames the runner took from it: n on
// success, and the frames whose front-end was launched on error.
func (r *Runner) ProcessFrames(src *FrameSource, n int) (*RunReport, error) {
	if n < 2 {
		return nil, fmt.Errorf("wami: need at least 2 frames (first frame only initializes state), got %d", n)
	}
	frames, stop := renderAhead(src, n)
	defer stop()
	rep := &RunReport{SoC: "", Frames: make([]FrameStats, 0, n)}
	var runErr error
	fail := func(i int) func(error) {
		return func(err error) {
			if runErr == nil {
				runErr = fmt.Errorf("wami: frame %d: %w", i, err)
			}
		}
	}

	// launchFrontEnd runs Debayer and Grayscale on the next mosaic and
	// hands the grayscale image to then.
	launchFrontEnd := func(i int, then func(*Image)) {
		mosaic := <-frames
		src.frame++
		r.dispatch(KDebayer, [][]float64{mosaic.Pix}, func(res *reconfig.InvokeResult, err error) {
			if err != nil {
				fail(i)(err)
				return
			}
			releasePix(mosaic.Pix)
			rgb := res.Out
			r.dispatch(KGrayscale, rgb, func(res *reconfig.InvokeResult, err error) {
				if err != nil {
					fail(i)(err)
					return
				}
				releasePix(rgb...)
				then(&Image{N: mosaic.N, Pix: res.Out[0]})
			})
		})
	}

	var processFrame func(i int)
	processFrame = func(i int) {
		frameStart := r.rt.Engine().Now()
		energyStart := r.rt.Meter().TotalEnergy()
		reconfStart := r.rt.Stats().Reconfigurations

		finishFrame := func(fs FrameStats) {
			fs.Time = r.rt.Engine().Now() - frameStart
			fs.Energy = r.rt.Meter().TotalEnergy() - energyStart
			fs.Reconfigurations = r.rt.Stats().Reconfigurations - reconfStart
			rep.Frames = append(rep.Frames, fs)
			if i > 0 {
				rep.TotalTime += fs.Time
				rep.TotalEnergy += fs.Energy
			}
			if i+1 < n {
				processFrame(i + 1)
			}
		}

		// The frame forks into two chains that own disjoint tiles: the
		// front-end (Debayer, Grayscale) on the new mosaic and the
		// Lucas-Kanade setup chain (Gradient, Steepest-Descent, Hessian,
		// Matrix-Invert) on the previous frame's template. On SoCs with
		// enough reconfigurable tiles the chains overlap; the iteration
		// loop starts when both complete.
		var gray *Image
		var sd [][]float64
		var hinv []float64
		pending := 1
		if r.prev != nil {
			pending = 2
		}
		join := func() {
			pending--
			if pending > 0 {
				return
			}
			if r.prev == nil {
				r.prev = gray
				r.bg = gray.Clone()
				finishFrame(FrameStats{})
				return
			}
			r.lkLoop(gray, sd, hinv, Affine{}, 1, fail(i), finishFrame)
		}

		launchFrontEnd(i, func(g *Image) {
			gray = g
			join()
		})
		// Setup chain on the template (previous frame).
		if r.prev != nil {
			r.dispatch(KGradient, [][]float64{r.prev.Pix}, func(res *reconfig.InvokeResult, err error) {
				if err != nil {
					fail(i)(err)
					return
				}
				grad := res.Out
				r.dispatch(KSteepestDescent, grad, func(res *reconfig.InvokeResult, err error) {
					if err != nil {
						fail(i)(err)
						return
					}
					releasePix(grad...)
					sd = res.Out
					r.dispatch(KHessian, sd, func(res *reconfig.InvokeResult, err error) {
						if err != nil {
							fail(i)(err)
							return
						}
						r.dispatch(KMatrixInvert, res.Out, func(res *reconfig.InvokeResult, err error) {
							if err != nil {
								fail(i)(err)
								return
							}
							hinv = res.Out[0]
							join()
						})
					})
				})
			})
		}
	}

	processFrame(0)
	r.rt.Engine().Run(0)
	if runErr != nil {
		return nil, runErr
	}
	if len(rep.Frames) != n {
		return nil, fmt.Errorf("wami: processed %d of %d frames (deadlock in the schedule?)", len(rep.Frames), n)
	}
	rep.Stats = r.rt.Stats()
	return rep, nil
}

// lkLoop runs one Lucas-Kanade iteration and recurses until convergence
// or the iteration bound.
func (r *Runner) lkLoop(gray *Image, sd [][]float64, hinv []float64, p Affine, iter int, fail func(error), finishFrame func(FrameStats)) {
	r.dispatch(KWarpImg, [][]float64{gray.Pix, p[:]}, func(res *reconfig.InvokeResult, err error) {
		if err != nil {
			fail(err)
			return
		}
		warped := res.Out[0]
		r.dispatch(KSubtract, [][]float64{warped, r.prev.Pix}, func(res *reconfig.InvokeResult, err error) {
			if err != nil {
				fail(err)
				return
			}
			errImg := res.Out[0]
			in := make([][]float64, 0, 7)
			in = append(in, sd...)
			in = append(in, errImg)
			r.dispatch(KSDUpdate, in, func(res *reconfig.InvokeResult, err error) {
				if err != nil {
					fail(err)
					return
				}
				releasePix(errImg)
				sdu := res.Out
				min := make([][]float64, 0, 7)
				min = append(min, hinv)
				min = append(min, sdu...)
				r.dispatch(KMult, min, func(res *reconfig.InvokeResult, err error) {
					if err != nil {
						fail(err)
						return
					}
					releasePix(sdu...)
					dp := res.Out[0]
					r.dispatch(KReshapeAdd, [][]float64{p[:], dp}, func(res *reconfig.InvokeResult, err error) {
						if err != nil {
							fail(err)
							return
						}
						var next Affine
						copy(next[:], res.Out[0])
						norm := 0.0
						for _, v := range dp {
							norm += v * v
						}
						if math.Sqrt(norm) < r.cfg.LKEpsilon || iter >= r.cfg.LKIterations {
							r.detect(gray, warped, sd, next, iter, fail, finishFrame)
							return
						}
						releasePix(warped)
						r.lkLoop(gray, sd, hinv, next, iter+1, fail, finishFrame)
					})
				})
			})
		})
	})
}

// detect runs Change-Detection on the registered frame and closes out
// the frame. It is the last consumer of the frame's warped image and
// steepest-descent planes, of the template gray replaces and of the
// background the detection replaces, and hands all of them back to the
// free list.
func (r *Runner) detect(gray *Image, warped []float64, sd [][]float64, motion Affine, iters int, fail func(error), finishFrame func(FrameStats)) {
	r.dispatch(KChangeDetection, [][]float64{warped, r.bg.Pix, {cdThreshold, cdAlpha}}, func(res *reconfig.InvokeResult, err error) {
		if err != nil {
			fail(err)
			return
		}
		mask := res.Out[0]
		det := 0
		for _, v := range mask {
			if v != 0 {
				det++
			}
		}
		releasePix(mask, warped, r.bg.Pix, r.prev.Pix)
		releasePix(sd...)
		r.bg = &Image{N: r.bg.N, Pix: res.Out[1]}
		r.prev = gray
		finishFrame(FrameStats{Detections: det, LKIters: iters, MotionErr: motionErrOf(motion)})
	})
}

// motionErrOf is filled in by the caller via ground truth when known;
// here it records the translation magnitude of the residual beyond the
// affine identity (tests compare against the frame source directly).
func motionErrOf(m Affine) float64 {
	return math.Hypot(m[4], m[5])
}
