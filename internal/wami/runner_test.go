package wami

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"presp/internal/faultinject"
	"presp/internal/reconfig"
	"presp/internal/socgen"
)

// bootRunner boots the named runtime SoC and a runner on it.
func bootRunner(t testing.TB, socName string, iters int) (*Runner, *reconfig.Runtime) {
	t.Helper()
	cfg, alloc, err := RuntimeSoC(socName)
	if err != nil {
		t.Fatal(err)
	}
	return boot(t, cfg, alloc, reconfig.DefaultConfig(), iters)
}

// boot brings up (cfg, alloc) under rcfg and builds a runner bounded at
// iters Lucas-Kanade iterations.
func boot(t testing.TB, cfg *socgen.Config, alloc Allocation, rcfg reconfig.Config, iters int) (*Runner, *reconfig.Runtime) {
	t.Helper()
	reg, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	rt, _, err := Boot(cfg, alloc, reg, nil, rcfg, true)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := DefaultPipelineConfig()
	pcfg.LKIterations = iters
	runner, err := NewRunner(rt, alloc, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	return runner, rt
}

func TestRunnerProcessesFramesOnSoCY(t *testing.T) {
	runner, rt := bootRunner(t, "SoC_Y", 1)
	src, err := NewFrameSource(64, EvalMotionX, EvalMotionY, EvalTargets)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner.ProcessFrames(src, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Frames) != 4 {
		t.Fatalf("frames: %d", len(rep.Frames))
	}
	if rep.TimePerFrame() <= 0 || rep.EnergyPerFrame() <= 0 {
		t.Fatal("no time or energy accumulated")
	}
	// Steady-state frames must detect the moving targets.
	det := 0
	for _, f := range rep.Frames[1:] {
		det += f.Detections
		if f.Time <= 0 {
			t.Fatal("frame took no time")
		}
	}
	if det == 0 {
		t.Fatal("no detections")
	}
	st := rt.Stats()
	if st.Reconfigurations == 0 {
		t.Fatal("runtime never reconfigured")
	}
	// SoC_Y leaves subtract and reshape-add to the CPU: 2 per frame
	// after warm-up at one LK iteration.
	if st.CPUFallbacks == 0 {
		t.Fatal("CPU fallback kernels never ran")
	}
}

func TestRunnerAllHardwareOnSoCZ(t *testing.T) {
	runner, rt := bootRunner(t, "SoC_Z", 1)
	src, err := NewFrameSource(64, EvalMotionX, EvalMotionY, EvalTargets)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.ProcessFrames(src, 3); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().CPUFallbacks != 0 {
		t.Fatalf("SoC_Z should run fully in hardware, %d CPU kernels", rt.Stats().CPUFallbacks)
	}
}

func TestRunnerMultiIteration(t *testing.T) {
	runner, _ := bootRunner(t, "SoC_Y", 4)
	src, err := NewFrameSource(64, 0.7, -0.4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner.ProcessFrames(src, 3)
	if err != nil {
		t.Fatal(err)
	}
	// With sub-pixel motion the loop converges before the bound.
	for _, f := range rep.Frames[1:] {
		if f.LKIters < 1 || f.LKIters > 4 {
			t.Fatalf("LK iterations: %d", f.LKIters)
		}
	}
}

func TestRunnerValidation(t *testing.T) {
	runner, rt := bootRunner(t, "SoC_Y", 1)
	_ = runner
	if _, err := NewRunner(nil, Allocation{"rt_1": {1}}, DefaultPipelineConfig()); err == nil {
		t.Fatal("nil runtime accepted")
	}
	if _, err := NewRunner(rt, Allocation{}, DefaultPipelineConfig()); err == nil {
		t.Fatal("empty allocation accepted")
	}
	if _, err := NewRunner(rt, Allocation{"rt_1": {99}}, DefaultPipelineConfig()); err == nil {
		t.Fatal("unknown kernel index accepted")
	}
	bad := DefaultPipelineConfig()
	bad.LKIterations = 0
	if _, err := NewRunner(rt, Allocation{"rt_1": {1}}, bad); err == nil {
		t.Fatal("zero iterations accepted")
	}
	src, err := NewFrameSource(64, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.ProcessFrames(src, 1); err == nil {
		t.Fatal("single-frame run accepted")
	}
}

// TestRunnerTileTable: the runner dispatches each allocated kernel to
// its one tile and an unallocated kernel to the CPU.
func TestRunnerTileTable(t *testing.T) {
	runner, _ := bootRunner(t, "SoC_Y", 1)
	if got := runner.tileOf[KSDUpdate]; got != "rt_2" {
		t.Fatalf("sd-update tile: %q", got)
	}
	if got := runner.tileOf[KSubtract]; got != "" {
		t.Fatalf("unallocated kernel mapped to tile %q", got)
	}
}

// TestRunnerRejectsKernelOnTwoTiles: a kernel allocated to two tiles
// has no single tile to dispatch to, so NewRunner rejects the
// allocation and names the kernel and both tiles.
func TestRunnerRejectsKernelOnTwoTiles(t *testing.T) {
	_, rt := bootRunner(t, "SoC_Y", 1)
	alloc := Allocation{"rt_1": {KDebayer, KGrayscale}, "rt_2": {KDebayer}, "rt_3": {KHessian}}
	_, err := NewRunner(rt, alloc, DefaultPipelineConfig())
	if err == nil {
		t.Fatal("kernel allocated to two tiles accepted")
	}
	for _, want := range []string{Names[KDebayer], "rt_1", "rt_2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// TestPrefetcherPredictions pins the next-kernel prediction for the
// schedules that drive Fig 4's reconfiguration counts.
func TestPrefetcherPredictions(t *testing.T) {
	runner, _ := bootRunner(t, "SoC_Z", 1)
	cases := []struct {
		tile string
		k    int
		want int
	}{
		{"rt_3", KWarpImg, KMult},            // within the loop
		{"rt_2", KSubtract, KReshapeAdd},     // within the loop
		{"rt_3", KMult, KHessian},            // frame wrap -> next prefix kernel
		{"rt_2", KReshapeAdd, KGrayscale},    // frame wrap
		{"rt_1", KChangeDetection, KDebayer}, // next frame's front-end
		{"rt_4", KSDUpdate, KGradient},       // frame wrap to its prefix kernel
	}
	for _, c := range cases {
		if got := runner.nextOnTile(c.tile, c.k); got != c.want {
			t.Errorf("nextOnTile(%s, %s) = %s, want %s", c.tile, Names[c.k], Names[got], Names[c.want])
		}
	}
}

// TestFig4Orderings is the headline runtime claim: SoC_X is the slowest
// but most energy-efficient, SoC_Z the fastest but least efficient,
// SoC_Y in between on both axes.
func TestFig4Orderings(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-SoC simulation in -short mode")
	}
	results := make(map[string]*RunReport)
	for _, name := range RuntimeSoCNames() {
		runner, _ := bootRunner(t, name, 1)
		src, err := NewFrameSource(EvalFrameEdge, EvalMotionX, EvalMotionY, EvalTargets)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := runner.ProcessFrames(src, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = rep
	}
	x, y, z := results["SoC_X"], results["SoC_Y"], results["SoC_Z"]
	if !(x.TimePerFrame() > y.TimePerFrame() && y.TimePerFrame() > z.TimePerFrame()) {
		t.Errorf("time ordering violated: X=%.4f Y=%.4f Z=%.4f",
			x.TimePerFrame(), y.TimePerFrame(), z.TimePerFrame())
	}
	if !(x.EnergyPerFrame() < y.EnergyPerFrame() && y.EnergyPerFrame() < z.EnergyPerFrame()) {
		t.Errorf("energy ordering violated: X=%.3f Y=%.3f Z=%.3f",
			x.EnergyPerFrame(), y.EnergyPerFrame(), z.EnergyPerFrame())
	}
}

// TestHardwareMatchesGoldenPipeline is the hardware-vs-software leg of
// the differential harness: the same frame stream runs through the
// software Pipeline and through the runner on every runtime SoC. The
// accelerators execute the identical kernels in the same order, so on
// every SoC each frame's estimated motion must be bit-identical and its
// detection count equal. The runner feeds Change-Detection the warp it
// computed in the last Lucas-Kanade iteration (the motion before the
// final update) where the Pipeline warps again with the final motion,
// so the background is checked, bit for bit, against a software chain
// on the runner's schedule: Change-Detection over Warp(gray, p) with p
// from one iteration fewer.
func TestHardwareMatchesGoldenPipeline(t *testing.T) {
	const frames = 6
	cfg := DefaultPipelineConfig()
	cfg.LKIterations = 6
	cfg.LKEpsilon = 1e-9 // run all iterations on both paths

	swSrc, err := NewFrameSource(64, EvalMotionX, EvalMotionY, EvalTargets)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var swMotion []float64
	var swDet []int
	var prev, bg *Image // the runner's schedule
	for i := 0; i < frames; i++ {
		res, err := sw.Process(swSrc.Next())
		if err != nil {
			t.Fatal(err)
		}
		swMotion = append(swMotion, math.Hypot(res.Motion[4], res.Motion[5]))
		swDet = append(swDet, res.Detections)
		if i == 0 {
			bg = res.Gray.Clone()
		} else {
			p, _, err := LucasKanade(prev, res.Gray, cfg.LKIterations-1, cfg.LKEpsilon)
			if err != nil {
				t.Fatal(err)
			}
			_, bg = ChangeDetection(Warp(res.Gray, p), bg, cdThreshold, cdAlpha)
		}
		prev = res.Gray
	}

	for _, soc := range []string{"SoC_X", "SoC_Y", "SoC_Z"} {
		t.Run(soc, func(t *testing.T) {
			runner, _ := bootRunner(t, soc, cfg.LKIterations)
			runner.cfg.LKEpsilon = cfg.LKEpsilon
			hwSrc, err := NewFrameSource(64, EvalMotionX, EvalMotionY, EvalTargets)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runner.ProcessFrames(hwSrc, frames)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < frames; i++ {
				if it := rep.Frames[i].LKIters; it != cfg.LKIterations {
					t.Fatalf("frame %d: %d Lucas-Kanade iterations, want all %d", i, it, cfg.LKIterations)
				}
				if hw := rep.Frames[i].MotionErr; math.Float64bits(hw) != math.Float64bits(swMotion[i]) {
					t.Errorf("frame %d: hardware motion %v (%#x) vs software %v (%#x)",
						i, hw, math.Float64bits(hw), swMotion[i], math.Float64bits(swMotion[i]))
				}
				if rep.Frames[i].Detections != swDet[i] {
					t.Errorf("frame %d: hardware detections %d vs software %d",
						i, rep.Frames[i].Detections, swDet[i])
				}
			}
			sameBits(t, "final background", runner.bg.Pix, bg.Pix)
		})
	}
}

// TestDeadTileFallbackMatchesHealthyRun is the dead-tile leg of the
// differential harness: one scene on SoC_X runs on a healthy SoC and
// again with every ICAP program on rt_1 failing, which drives the tile
// past TileDeadThreshold and sends its kernels to the CPU. The
// processor runs the kernels the tile would have run, so every frame's
// registration and detection results and the final background plane
// must match the healthy run bit for bit, on the slower schedule.
func TestDeadTileFallbackMatchesHealthyRun(t *testing.T) {
	const frames = 6
	cfg, alloc, err := RuntimeSoC("SoC_X")
	if err != nil {
		t.Fatal(err)
	}
	run := func(rcfg reconfig.Config) (*RunReport, []float64) {
		runner, _ := boot(t, cfg, alloc, rcfg, EvalLKIterations)
		src, err := NewFrameSource(64, EvalMotionX, EvalMotionY, EvalTargets)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := runner.ProcessFrames(src, frames)
		if err != nil {
			t.Fatal(err)
		}
		return rep, runner.bg.Pix
	}
	healthy, healthyBg := run(reconfig.DefaultConfig())
	plan, err := faultinject.ParsePlan("seed=7,icap@rt_1:count=-1")
	if err != nil {
		t.Fatal(err)
	}
	faulty := reconfig.DefaultConfig()
	faulty.FaultPlan = plan
	dead, deadBg := run(faulty)

	if dead.Stats.DeadTiles != 1 {
		t.Fatalf("%d dead tiles, want rt_1 alone", dead.Stats.DeadTiles)
	}
	// SoC_X leaves Subtract and Change-Detection to the CPU anyway, so
	// the dead tile must add fallbacks beyond those.
	if dead.Stats.CPUFallbacks <= healthy.Stats.CPUFallbacks {
		t.Fatalf("CPU fallbacks: %d with a dead tile, %d healthy", dead.Stats.CPUFallbacks, healthy.Stats.CPUFallbacks)
	}
	if g, w := functionalOf(dead), functionalOf(healthy); !reflect.DeepEqual(g, w) {
		t.Errorf("frames with a dead tile %+v, healthy %+v", g, w)
	}
	sameBits(t, "final background", deadBg, healthyBg)
	t.Logf("SoC_X: %.4f s/frame healthy, %.4f with rt_1 dead (%d CPU fallbacks vs %d)",
		healthy.TimePerFrame(), dead.TimePerFrame(), dead.Stats.CPUFallbacks, healthy.Stats.CPUFallbacks)
}
