package presp_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"presp"
	"presp/internal/vivado"
)

func platform(t *testing.T) *presp.Platform {
	t.Helper()
	p, err := presp.NewPlatform("VC707")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func quickConfig() *presp.Config {
	return &presp.Config{
		Name: "api-test", Board: "VC707", Cols: 3, Rows: 3, FreqHz: 78e6,
		Tiles: []presp.Tile{
			{Name: "cpu0", Kind: presp.TileCPU, Pos: presp.Coord{X: 0, Y: 0}},
			{Name: "mem0", Kind: presp.TileMem, Pos: presp.Coord{X: 1, Y: 0}},
			{Name: "aux0", Kind: presp.TileAux, Pos: presp.Coord{X: 2, Y: 0}},
			{Name: "rt_1", Kind: presp.TileReconf, AccelName: "fft", Pos: presp.Coord{X: 0, Y: 1}},
			{Name: "rt_2", Kind: presp.TileReconf, AccelName: "gemm", Pos: presp.Coord{X: 1, Y: 1}},
			{Name: "rt_3", Kind: presp.TileReconf, AccelName: "sort", Pos: presp.Coord{X: 2, Y: 1}},
		},
	}
}

func TestNewPlatformValidation(t *testing.T) {
	if _, err := presp.NewPlatform("ZCU102"); err == nil {
		t.Fatal("unsupported board accepted")
	}
	p := platform(t)
	if p.Device().Board != "VC707" {
		t.Fatalf("board: %s", p.Device().Board)
	}
	// The platform registry holds both accelerator families.
	if _, err := p.Accelerators().Lookup("fft"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Accelerators().Lookup("sd-update"); err != nil {
		t.Fatal(err)
	}
}

func TestBuildSoCBoardMismatch(t *testing.T) {
	p := platform(t)
	cfg := quickConfig()
	cfg.Board = "VCU118"
	if _, err := p.BuildSoC(cfg); err == nil {
		t.Fatal("board mismatch accepted")
	}
}

func TestFlowThroughFacade(t *testing.T) {
	p := platform(t)
	soc, err := p.BuildSoC(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := soc.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 3 {
		t.Fatalf("metrics N: %d", m.N)
	}
	res, err := p.RunFlow(context.Background(), soc, presp.FlowOptions{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FullBitstream == nil || len(res.PartialBitstreams) != 3 {
		t.Fatal("bitstreams missing")
	}
	mono, err := p.RunMonolithicFlow(context.Background(), soc, presp.FlowOptions{SkipBitstreams: true})
	if err != nil {
		t.Fatal(err)
	}
	dfx, err := p.RunStandardDFXFlow(context.Background(), soc, presp.FlowOptions{SkipBitstreams: true})
	if err != nil {
		t.Fatal(err)
	}
	if mono.Total <= 0 || dfx.Total <= 0 {
		t.Fatal("baseline flows produced no timing")
	}
	plan, err := p.Floorplan(soc)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Pblocks) != 3 {
		t.Fatalf("floorplan pblocks: %d", len(plan.Pblocks))
	}
}

// TestDiskCacheThroughFacade: a platform with an attached disk cache
// persists its synthesis checkpoints, and a fresh platform pointed at
// the same directory warm-starts (zero cache misses, identical timing).
func TestDiskCacheThroughFacade(t *testing.T) {
	dir := t.TempDir()

	p1 := platform(t)
	if err := p1.AttachDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	soc, err := p1.BuildSoC(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p1.RunFlow(context.Background(), soc, presp.FlowOptions{SkipBitstreams: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Jobs.CacheMisses == 0 {
		t.Fatal("cold run paid no synthesis")
	}

	store, err := vivado.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Entries == 0 {
		t.Fatal("no checkpoints persisted")
	}

	// A brand-new platform ("process restart") over the same directory.
	p2 := platform(t)
	if err := p2.AttachDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	soc2, err := p2.BuildSoC(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := p2.RunFlow(context.Background(), soc2, presp.FlowOptions{SkipBitstreams: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Jobs.CacheMisses != 0 {
		t.Fatalf("warm platform paid %d synthesis misses, want 0", warm.Jobs.CacheMisses)
	}
	// The stage-artifact cache rides the same tier: the fresh platform
	// skips every post-synthesis stage too.
	postSynth := cold.Jobs.PlanJobs + cold.Jobs.ImplJobs + cold.Jobs.BitgenJobs
	if warm.Jobs.Skipped != postSynth || warm.Jobs.StageCacheMisses != 0 {
		t.Fatalf("warm platform skipped %d stage jobs with %d misses, want %d and 0",
			warm.Jobs.Skipped, warm.Jobs.StageCacheMisses, postSynth)
	}
	if hits, misses := p2.StageCacheStats(); hits != int64(postSynth) || misses != 0 {
		t.Fatalf("warm platform stage cache: %d hits / %d misses, want %d / 0", hits, misses, postSynth)
	}
	if warm.Total != cold.Total {
		t.Fatalf("modelled total diverged: cold %v warm %v", cold.Total, warm.Total)
	}
}

func TestForceStrategyFacade(t *testing.T) {
	p := platform(t)
	soc, err := p.BuildSoC(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	strat, err := presp.ForceStrategy(soc, presp.Serial, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunFlow(context.Background(), soc, presp.FlowOptions{Strategy: strat, SkipBitstreams: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy.Kind != presp.Serial {
		t.Fatal("forced strategy ignored")
	}
}

func TestRuntimeInvokeThroughFacade(t *testing.T) {
	p := platform(t)
	soc, err := p.BuildSoC(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := p.NewRuntime(soc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.StageBitstreams(context.Background(), rt, map[string][]string{"rt_1": {"fft", "sort"}}, true); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Invoke("rt_1", "sort", [][]float64{{9, 1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out[0][0] != 1 || res.Out[0][2] != 9 {
		t.Fatalf("sort through facade: %v", res.Out[0])
	}
	if !res.Reconfigured {
		t.Fatal("swap from boot fft to sort not reported")
	}
	if err := rt.Reconfigure("rt_1", "fft"); err != nil {
		t.Fatal(err)
	}
	loaded, err := rt.Manager.Loaded("rt_1")
	if err != nil {
		t.Fatal(err)
	}
	if loaded != "fft" {
		t.Fatalf("loaded: %q", loaded)
	}
}

func TestRunWAMIThroughFacade(t *testing.T) {
	p := platform(t)
	rep, err := p.RunWAMI("SoC_Y", presp.WAMIOptions{Frames: 3, FrameEdge: 64, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TimePerFrame <= 0 || rep.EnergyPerFrame <= 0 {
		t.Fatal("degenerate WAMI report")
	}
	if len(rep.Frames) != 3 {
		t.Fatalf("frames: %d", len(rep.Frames))
	}
	det := 0
	for _, f := range rep.Frames[1:] {
		det += f.Detections
	}
	if det == 0 {
		t.Fatal("no detections through the facade")
	}
}

func TestPresetsThroughFacade(t *testing.T) {
	p := platform(t)
	for _, name := range presp.PresetNames() {
		cfg, err := presp.PresetConfig(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := p.BuildSoC(cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestWAMIHelpers(t *testing.T) {
	cfg, alloc, err := presp.WAMIRuntimeSoC("SoC_Z")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "SoC_Z" || len(alloc) != 4 {
		t.Fatalf("SoC_Z: %d tiles", len(alloc))
	}
	name, err := presp.WAMIKernelName(1)
	if err != nil {
		t.Fatal(err)
	}
	if name != "debayer" {
		t.Fatalf("kernel 1: %s", name)
	}
	if _, err := presp.WAMIKernelName(99); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestCustomAccelerator(t *testing.T) {
	p := platform(t)
	err := p.RegisterAccelerator(&presp.AccelDescriptor{
		Name:                "doubler",
		Kernel:              doubler{},
		Resources:           presp.Resources{12000, 13000, 8, 4},
		CyclesPerInvocation: func(n int) int64 { return 100 + int64(n) },
		ActivePowerW:        0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.Tiles[3].AccelName = "doubler"
	soc, err := p.BuildSoC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := p.NewRuntime(soc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.StageBitstreams(context.Background(), rt, map[string][]string{"rt_1": {"doubler"}}, true); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Invoke("rt_1", "doubler", [][]float64{{1.5, -2}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Out[0][0]-3) > 1e-12 || math.Abs(res.Out[0][1]+4) > 1e-12 {
		t.Fatalf("custom kernel output: %v", res.Out[0])
	}
}

type doubler struct{}

func (doubler) Name() string { return "doubler" }
func (doubler) Run(in [][]float64) ([][]float64, error) {
	out := make([]float64, len(in[0]))
	for i, v := range in[0] {
		out[i] = 2 * v
	}
	return [][]float64{out}, nil
}

func TestBaremetalThroughFacade(t *testing.T) {
	p := platform(t)
	soc, err := p.BuildSoC(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := p.NewRuntime(soc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.StageBitstreams(context.Background(), rt, map[string][]string{"rt_1": {"fft", "sort"}}, true); err != nil {
		t.Fatal(err)
	}
	bm, err := rt.Baremetal()
	if err != nil {
		t.Fatal(err)
	}
	if err := bm.Reconfigure("rt_1", "sort"); err != nil {
		t.Fatal(err)
	}
	res, err := bm.Invoke("rt_1", "sort", [][]float64{{2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out[0][0] != 1 {
		t.Fatalf("baremetal sort: %v", res.Out[0])
	}
}

func TestRunExperiment(t *testing.T) {
	out, err := presp.RunExperiment("table1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "semi-parallel") {
		t.Fatalf("table1 output wrong:\n%s", out)
	}
	out, err = presp.RunExperiment("2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "82267") {
		t.Fatalf("table2 output wrong:\n%s", out)
	}
	if _, err := presp.RunExperiment("table9"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(presp.ExperimentNames()) != 10 {
		t.Fatalf("experiment names: %v", presp.ExperimentNames())
	}
}
