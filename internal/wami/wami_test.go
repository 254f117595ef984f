package wami

import (
	"fmt"
	"testing"

	"presp/internal/accel"
	"presp/internal/fpga"
	"presp/internal/socgen"
)

func TestRegistryComplete(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Names()) != NumKernels {
		t.Fatalf("registry holds %d kernels, want %d", len(reg.Names()), NumKernels)
	}
	for idx := 1; idx <= NumKernels; idx++ {
		d, err := reg.Lookup(Names[idx])
		if err != nil {
			t.Fatalf("kernel %d: %v", idx, err)
		}
		if d.Kernel == nil {
			t.Errorf("%s: no functional model", d.Name)
		}
		if d.Resources[fpga.LUT] <= 0 {
			t.Errorf("%s: no LUT profile", d.Name)
		}
		if d.ActivePowerW <= 0 {
			t.Errorf("%s: no power model", d.Name)
		}
	}
}

// TestWamiLatencyModelsMatchHLS: the registered cycle models of the
// HLS-generated kernels keep the latency ordering of their datapaths
// for pixel-scaled kernels (more cycles per pixel -> slower).
func TestWamiLatencyModelsMatchHLS(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	const n = 4096
	fast, err := reg.Lookup(Names[KSubtract]) // 1.0 cyc/px at unroll 32
	if err != nil {
		t.Fatal(err)
	}
	slow, err := reg.Lookup(Names[KHessian]) // 2.6 cyc/px
	if err != nil {
		t.Fatal(err)
	}
	if fast.CyclesPerInvocation(n) >= slow.CyclesPerInvocation(n) {
		t.Fatal("subtract should be faster than hessian")
	}
}

func TestAddToComposesWithDefault(t *testing.T) {
	reg := accel.Default()
	if err := AddTo(reg); err != nil {
		t.Fatal(err)
	}
	if len(reg.Names()) != 5+NumKernels {
		t.Fatalf("combined registry: %d names", len(reg.Names()))
	}
}

func TestIndexRoundtrip(t *testing.T) {
	for idx := 1; idx <= NumKernels; idx++ {
		got, err := Index(Names[idx])
		if err != nil {
			t.Fatal(err)
		}
		if got != idx {
			t.Fatalf("Index(%s) = %d, want %d", Names[idx], got, idx)
		}
	}
	if _, err := Index("warp-drive"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestLUTs(t *testing.T) {
	if _, err := LUTs(0); err == nil {
		t.Fatal("kernel 0 accepted")
	}
	l, err := LUTs(KSDUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if l != 34000 {
		t.Fatalf("sd-update LUTs: %d", l)
	}
}

// validateDataflow checks the graph is acyclic when the per-iteration
// back edge (Warp depends on the previous iteration's Reshape-Add) is
// removed, and that every kernel appears exactly once.
func validateDataflow() error {
	nodes := Dataflow()
	seen := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		if seen[n.Kernel] {
			return fmt.Errorf("wami: kernel %d appears twice in the dataflow", n.Kernel)
		}
		seen[n.Kernel] = true
	}
	for idx := 1; idx <= NumKernels; idx++ {
		if !seen[idx] {
			return fmt.Errorf("wami: kernel %d missing from the dataflow", idx)
		}
	}
	// Topological check ignoring the loop-carried edge into Warp.
	state := make(map[int]int, len(nodes)) // 0 unvisited, 1 visiting, 2 done
	byKernel := make(map[int]Node, len(nodes))
	for _, n := range nodes {
		byKernel[n.Kernel] = n
	}
	var visit func(k int) error
	visit = func(k int) error {
		switch state[k] {
		case 1:
			return fmt.Errorf("wami: dataflow cycle through kernel %d", k)
		case 2:
			return nil
		}
		state[k] = 1
		for _, dep := range byKernel[k].Deps {
			if k == KWarpImg && dep == KReshapeAdd {
				continue // loop-carried dependency
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[k] = 2
		return nil
	}
	for _, n := range nodes {
		if err := visit(n.Kernel); err != nil {
			return err
		}
	}
	return nil
}

func TestDataflowValid(t *testing.T) {
	if err := validateDataflow(); err != nil {
		t.Fatal(err)
	}
	n, err := NodeFor(KWarpImg)
	if err != nil {
		t.Fatal(err)
	}
	if !n.PerIteration {
		t.Fatal("warp-img should be in the LK loop")
	}
	if _, err := NodeFor(99); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

// TestFlowSoCsMatchPaperClasses: the WAMI flow SoCs must land on the
// exact metrics and classes Table IV reports.
func TestFlowSoCsMatchPaperClasses(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		gamma float64
		accs  []int
	}{
		{"SoC_A", 1.26, []int{4, 8, 10, 9}},
		{"SoC_B", 0.60, []int{2, 3, 11, 1}},
		{"SoC_C", 0.97, []int{7, 11, 8, 2}},
		{"SoC_D", 2.40, []int{4, 5, 9, 2}},
	}
	for _, c := range cases {
		cfg, err := FlowSoC(c.name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := socgen.Elaborate(cfg, reg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		gamma := float64(d.ReconfigurableResources()[fpga.LUT]) / float64(d.StaticResources[fpga.LUT])
		if diff := gamma - c.gamma; diff > 0.02 || diff < -0.02 {
			t.Errorf("%s: γ=%.3f want %.2f", c.name, gamma, c.gamma)
		}
		// Verify the accelerator set matches the paper's indices.
		want := make(map[string]bool)
		for _, idx := range c.accs {
			want[Names[idx]] = true
		}
		count := 0
		for _, tl := range cfg.Tiles {
			if tl.AccelName != "" && want[tl.AccelName] {
				count++
			}
		}
		if c.name != "SoC_D" && count != 4 {
			t.Errorf("%s hosts %d of the expected accelerators", c.name, count)
		}
	}
	if _, err := FlowSoC("SoC_E"); err == nil {
		t.Fatal("unknown flow SoC accepted")
	}
}

// TestRuntimeSoCsMatchTableVI pins the Table VI allocations.
func TestRuntimeSoCsMatchTableVI(t *testing.T) {
	want := map[string]map[string][]int{
		"SoC_X": {
			"rt_1": {1, 4, 9, 10, 8},
			"rt_2": {2, 3, 6, 7, 11},
		},
		"SoC_Y": {
			"rt_1": {1, 3, 7, 12},
			"rt_2": {2, 6, 8},
			"rt_3": {4, 9, 10},
		},
		"SoC_Z": {
			"rt_1": {1, 6, 12},
			"rt_2": {2, 5, 11},
			"rt_3": {4, 10, 7},
			"rt_4": {3, 8, 9},
		},
	}
	for name, alloc := range want {
		cfg, got, err := RuntimeSoC(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(cfg.Tiles) != 3+len(alloc) {
			t.Errorf("%s: %d tiles", name, len(cfg.Tiles))
		}
		for tile, idxs := range alloc {
			g := got[tile]
			if len(g) != len(idxs) {
				t.Fatalf("%s/%s: %v", name, tile, g)
			}
			for i := range idxs {
				if g[i] != idxs[i] {
					t.Fatalf("%s/%s: got %v want %v", name, tile, g, idxs)
				}
			}
		}
	}
	if _, _, err := RuntimeSoC("SoC_W"); err == nil {
		t.Fatal("unknown runtime SoC accepted")
	}
}

func TestMissingKernels(t *testing.T) {
	_, allocX, err := RuntimeSoC("SoC_X")
	if err != nil {
		t.Fatal(err)
	}
	missing := MissingKernels(allocX)
	// SoC_X leaves subtract (5) and change-detection (12) to the CPU.
	if len(missing) != 2 || missing[0] != KSubtract || missing[1] != KChangeDetection {
		t.Fatalf("SoC_X missing kernels: %v", missing)
	}
	_, allocZ, err := RuntimeSoC("SoC_Z")
	if err != nil {
		t.Fatal(err)
	}
	if len(MissingKernels(allocZ)) != 0 {
		t.Fatal("SoC_Z should host every kernel")
	}
}

// TestRuntimeTilesSizedForLargestModule: each runtime tile's declared
// initial accelerator must be the largest of its set (it sizes the
// partition).
func TestRuntimeTilesSizedForLargestModule(t *testing.T) {
	for _, name := range RuntimeSoCNames() {
		cfg, alloc, err := RuntimeSoC(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tl := range cfg.Tiles {
			idxs, ok := alloc[tl.Name]
			if !ok {
				continue
			}
			declared, err := Index(tl.AccelName)
			if err != nil {
				t.Fatal(err)
			}
			for _, idx := range idxs {
				if lutProfile[idx] > lutProfile[declared] {
					t.Errorf("%s/%s: %s (%d LUTs) exceeds the declared %s (%d)",
						name, tl.Name, Names[idx], lutProfile[idx], tl.AccelName, lutProfile[declared])
				}
			}
		}
	}
}

func TestFrameSourceDeterministicWithGroundTruth(t *testing.T) {
	a, err := NewFrameSource(32, 0.5, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFrameSource(32, 0.5, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := a.Next(), b.Next()
	for i := range fa.Pix {
		if fa.Pix[i] != fb.Pix[i] {
			t.Fatal("frame source not deterministic")
		}
	}
	gx, gy := a.GroundTruthMotion(4)
	if gx != 2.0 || gy != 1.0 {
		t.Fatalf("ground truth: (%g, %g)", gx, gy)
	}
	if a.FrameIndex() != 1 {
		t.Fatalf("frame index %d after one frame, want 1", a.FrameIndex())
	}
}

func TestFrameSourceValidation(t *testing.T) {
	if _, err := NewFrameSource(8, 0, 0, 0); err == nil {
		t.Fatal("tiny frames accepted")
	}
	if _, err := NewFrameSource(32, 0, 0, -1); err == nil {
		t.Fatal("negative target count accepted")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	src, err := NewFrameSource(64, 0.7, -0.4, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	var detections int
	for i := 0; i < 6; i++ {
		res, err := p.Process(src.Next())
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i == 0 {
			continue
		}
		// Registration recovers the per-frame motion to sub-pixel
		// accuracy on the synthetic scene.
		if e := MotionError(res.Motion, 0.7, -0.4); e > 0.25 {
			t.Errorf("frame %d: registration error %.3f px", i, e)
		}
		detections += res.Detections
	}
	if detections == 0 {
		t.Fatal("moving targets never detected")
	}
	if p.FramesProcessed() != 6 {
		t.Fatalf("frames processed: %d", p.FramesProcessed())
	}
}

func TestPipelineValidation(t *testing.T) {
	bad := DefaultPipelineConfig()
	bad.LKIterations = 0
	if _, err := NewPipeline(bad); err == nil {
		t.Fatal("zero-iteration pipeline accepted")
	}
}

// TestDetectionQuality scores the full software pipeline against the
// frame source's ground truth: the detector must find most of the
// target changes without flooding the mask.
func TestDetectionQuality(t *testing.T) {
	src, err := NewFrameSource(64, 0.7, -0.4, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	var agg DetectionQuality
	for i := 0; i < 6; i++ {
		res, err := p.Process(src.Next())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			continue
		}
		q, err := src.ScoreDetections(res.Mask, i)
		if err != nil {
			t.Fatal(err)
		}
		agg.TargetsDetected += q.TargetsDetected
		agg.TargetsTotal += q.TargetsTotal
		agg.TruePixels += q.TruePixels
		agg.FlaggedPixels += q.FlaggedPixels
	}
	if agg.Recall() < 0.5 {
		t.Errorf("object recall %.2f too low (%d of %d targets)", agg.Recall(), agg.TargetsDetected, agg.TargetsTotal)
	}
	if agg.Precision() < 0.6 {
		t.Errorf("pixel precision %.2f too low (%d of %d flagged)", agg.Precision(), agg.TruePixels, agg.FlaggedPixels)
	}
	if agg.F1() <= 0 {
		t.Error("zero F1")
	}
}

func TestScoreDetectionsValidation(t *testing.T) {
	src, err := NewFrameSource(32, 0.5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.ScoreDetections(NewImage(16), 1); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := src.ScoreDetections(NewImage(32), 0); err == nil {
		t.Fatal("frame 0 accepted")
	}
	// An empty mask on a frame with moving targets misses everything.
	q, err := src.ScoreDetections(NewImage(32), 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.TargetsTotal == 0 {
		t.Fatal("ground truth has no targets?")
	}
	if q.Recall() != 0 {
		t.Fatalf("empty mask recall: %g", q.Recall())
	}
	if q.Precision() != 1 {
		t.Fatalf("empty mask precision should be vacuous 1, got %g", q.Precision())
	}
}
