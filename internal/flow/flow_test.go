package flow

import (
	"context"
	"strings"
	"testing"

	"presp/internal/accel"
	"presp/internal/bitstream"
	"presp/internal/core"
	"presp/internal/fpga"
	"presp/internal/noc"
	"presp/internal/rtl"
	"presp/internal/socgen"
	"presp/internal/tile"
)

func soc2Design(t *testing.T) *socgen.Design {
	t.Helper()
	d, err := socgen.Elaborate(socgen.SOC2(), accel.Default())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunPRESPFullyParallel(t *testing.T) {
	d := soc2Design(t)
	res, err := RunPRESP(context.Background(), d, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	// SOC_2 is class 1.2 -> fully parallel, τ = N = 4.
	if res.Strategy.Kind != core.FullyParallel || res.Strategy.Tau != 4 {
		t.Fatalf("strategy: %s τ=%d", res.Strategy.Kind, res.Strategy.Tau)
	}
	if res.TStatic <= 0 || res.MaxOmega <= 0 {
		t.Fatal("parallel run missing pre-route or in-context times")
	}
	if res.PRWall != res.TStatic+res.MaxOmega {
		t.Fatalf("P&R wall %v != t_static %v + maxΩ %v", res.PRWall, res.TStatic, res.MaxOmega)
	}
	if res.Total != res.SynthWall+res.PRWall {
		t.Fatal("total != synth + P&R")
	}
	if len(res.Groups) != 4 {
		t.Fatalf("in-context runs: got %d want 4", len(res.Groups))
	}
	// Parallel synthesis wall time is bounded by the slowest run (plus
	// contention) — strictly less than the sum.
	var sum float64
	for _, tm := range res.SynthRuns {
		sum += float64(tm)
	}
	if float64(res.SynthWall) >= sum {
		t.Fatal("parallel synthesis did not beat sequential")
	}
	// Bitstreams: one full + one partial per partition.
	if res.FullBitstream == nil || len(res.PartialBitstreams) != 4 {
		t.Fatalf("bitstreams missing: full=%v partials=%d", res.FullBitstream != nil, len(res.PartialBitstreams))
	}
	for _, bs := range res.PartialBitstreams {
		if bs.Kind != bitstream.Partial || bs.Size() == 0 {
			t.Fatalf("bad partial bitstream %s", bs.Name)
		}
	}
}

func TestRunPRESPSerialOnSOC1(t *testing.T) {
	d, err := socgen.Elaborate(socgen.SOC1(), accel.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPRESP(context.Background(), d, Options{SkipBitstreams: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy.Kind != core.Serial {
		t.Fatalf("SOC_1 should implement serially, chose %s", res.Strategy.Kind)
	}
	if res.TStatic != 0 || res.MaxOmega != 0 || len(res.Groups) != 0 {
		t.Fatal("serial run should have no parallel components")
	}
	if res.FullBitstream != nil {
		t.Fatal("SkipBitstreams ignored")
	}
}

func TestRunPRESPForcedStrategy(t *testing.T) {
	d := soc2Design(t)
	strat, err := core.ForceStrategy(d, core.SemiParallel, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPRESP(context.Background(), d, Options{Strategy: strat, SkipBitstreams: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy.Kind != core.SemiParallel || len(res.Groups) != 2 {
		t.Fatalf("forced semi-parallel not honoured: %s with %d groups", res.Strategy.Kind, len(res.Groups))
	}
}

func TestStrategyOrderingOnSOC2(t *testing.T) {
	// Class 1.2: fully-parallel < semi-parallel < serial (Table III).
	d := soc2Design(t)
	times := make(map[core.StrategyKind]float64)
	for _, kind := range []core.StrategyKind{core.Serial, core.SemiParallel, core.FullyParallel} {
		tau := 2
		strat, err := core.ForceStrategy(d, kind, tau)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunPRESP(context.Background(), d, Options{Strategy: strat, SkipBitstreams: true})
		if err != nil {
			t.Fatal(err)
		}
		times[kind] = float64(res.PRWall)
	}
	if !(times[core.FullyParallel] < times[core.SemiParallel] && times[core.SemiParallel] < times[core.Serial]) {
		t.Fatalf("class 1.2 ordering violated: %v", times)
	}
}

func TestRunMonolithic(t *testing.T) {
	d := soc2Design(t)
	mono, err := RunMonolithic(context.Background(), d, Options{SkipBitstreams: true})
	if err != nil {
		t.Fatal(err)
	}
	if mono.Strategy.Kind != core.Serial {
		t.Fatal("monolithic flow should be serial")
	}
	if mono.TStatic != 0 || len(mono.Groups) != 0 {
		t.Fatal("monolithic flow has no DFX stages")
	}
	presp, err := RunPRESP(context.Background(), d, Options{SkipBitstreams: true})
	if err != nil {
		t.Fatal(err)
	}
	// SOC_2 (class 1.2) is where PR-ESP's parallel implementation wins.
	if presp.Total >= mono.Total {
		t.Fatalf("PR-ESP (%v) should beat monolithic (%v) on class 1.2", presp.Total, mono.Total)
	}
}

func TestRunStandardDFX(t *testing.T) {
	d := soc2Design(t)
	dfx, err := RunStandardDFX(context.Background(), d, Options{SkipBitstreams: true})
	if err != nil {
		t.Fatal(err)
	}
	// Sequential synthesis: the wall time is the sum of runs (up to
	// float summation order).
	var sum float64
	for _, tm := range dfx.SynthRuns {
		sum += float64(tm)
	}
	if diff := float64(dfx.SynthWall) - sum; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("standard DFX synthesis should be sequential: %v vs %v", dfx.SynthWall, sum)
	}
	presp, err := RunPRESP(context.Background(), d, Options{SkipBitstreams: true})
	if err != nil {
		t.Fatal(err)
	}
	if presp.Total >= dfx.Total {
		t.Fatal("PR-ESP should beat the single-instance DFX flow on SOC_2")
	}
}

func TestBuildStaticTop(t *testing.T) {
	d := soc2Design(t)
	top := BuildStaticTop(d)
	if top.TotalCost()[fpga.LUT] != d.StaticResources[fpga.LUT] {
		t.Fatalf("static top cost %d != static resources %d",
			top.TotalCost()[fpga.LUT], d.StaticResources[fpga.LUT])
	}
	// Every reconfigurable partition appears as an auto-generated black
	// box carrying the wrapper interface.
	bbs := 0
	top.Walk(func(_ string, m *rtl.Module) {
		if m.BlackBox {
			bbs++
			if len(m.Ports) == 0 {
				t.Errorf("black box %s has no interface", m.Name)
			}
		}
	})
	if bbs != len(d.RPs) {
		t.Fatalf("black boxes: got %d want %d", bbs, len(d.RPs))
	}
}

func TestGenerateRuntimeBitstreams(t *testing.T) {
	reg := accel.Default()
	d := soc2Design(t)
	plan, err := FloorplanDesign(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// rt_1 hosts conv2d initially; stage sort and gemm too.
	alloc := map[string][]string{"rt_1": {"conv2d", "sort", "gemm"}}
	bss, err := GenerateRuntimeBitstreams(context.Background(), d, plan, alloc, reg, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bss["rt_1"]) != 3 {
		t.Fatalf("staged %d bitstreams", len(bss["rt_1"]))
	}
	// An accelerator that does not fit the partition must be rejected:
	// rt_4 hosts sort (20468 LUTs → small pblock); conv2d (36741) will
	// not fit.
	if _, err := GenerateRuntimeBitstreams(context.Background(), d, plan, map[string][]string{"rt_4": {"conv2d"}}, reg, true, 0); err == nil {
		t.Fatal("oversized accelerator staged")
	}
	// Unknown tile and unknown accelerator.
	if _, err := GenerateRuntimeBitstreams(context.Background(), d, plan, map[string][]string{"ghost": {"sort"}}, reg, true, 0); err == nil {
		t.Fatal("unknown tile accepted")
	}
	if _, err := GenerateRuntimeBitstreams(context.Background(), d, plan, map[string][]string{"rt_1": {"warp-drive"}}, reg, true, 0); err == nil {
		t.Fatal("unknown accelerator accepted")
	}
}

func TestFloorplanDesignLeavesRoomForStatic(t *testing.T) {
	d := soc2Design(t)
	plan, err := FloorplanDesign(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	free := d.Dev.CellResources().Scale(float64(plan.FreeCells))
	if !free.Covers(d.StaticResources) {
		t.Fatalf("floorplan left %s for a %s static part", free, d.StaticResources)
	}
}

func TestFlowRejectsDFXViolations(t *testing.T) {
	d := soc2Design(t)
	// Sabotage one partition with the native (non-compliant) tile
	// content: clock-modifying DVFS logic inside the partition.
	d.RPs[0].Content = tile.NativeAccelModule("bad", fpga.NewResources(20000, 20000, 0, 0))
	_, err := RunPRESP(context.Background(), d, Options{SkipBitstreams: true})
	if err == nil {
		t.Fatal("flow accepted a DFX-violating partition")
	}
	if !strings.Contains(err.Error(), "DRC") {
		t.Fatalf("expected a DRC error, got: %v", err)
	}
}

// TestFlowOnUltraScaleBoards: the same SoC topology compiles on the
// larger parts; relative fabric pressure drops, so the reserved
// fraction shrinks and t_static with it.
func TestFlowOnUltraScaleBoards(t *testing.T) {
	mk := func(board string) *socgen.Design {
		cfg := socgen.SOC2()
		cfg.Name = "SOC_2_" + board
		cfg.Board = board
		d, err := socgen.Elaborate(cfg, accel.Default())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	small, err := RunPRESP(context.Background(), mk("VC707"), Options{SkipBitstreams: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, board := range []string{"VCU118", "VCU128"} {
		res, err := RunPRESP(context.Background(), mk(board), Options{SkipBitstreams: true})
		if err != nil {
			t.Fatalf("%s: %v", board, err)
		}
		if res.Plan.RPFraction >= small.Plan.RPFraction {
			t.Errorf("%s: reserved fraction %.3f should be below the VC707's %.3f",
				board, res.Plan.RPFraction, small.Plan.RPFraction)
		}
		if res.TStatic >= small.TStatic {
			t.Errorf("%s: t_static %v should beat the congested VC707 %v", board, res.TStatic, small.TStatic)
		}
	}
}

// TestMonolithicESPSoC: a plain ESP SoC (native accelerator tiles, an
// SLM tile, no reconfigurable partitions) flows through RunPRESP as a
// monolithic compile — the base-platform behaviour PR-ESP extends.
func TestMonolithicESPSoC(t *testing.T) {
	cfg := &socgen.Config{
		Name: "esp-mono", Board: "VC707", Cols: 3, Rows: 2, FreqHz: 78e6,
		Tiles: []tile.Tile{
			{Name: "cpu0", Kind: tile.CPU, Pos: noc.Coord{X: 0, Y: 0}},
			{Name: "mem0", Kind: tile.Mem, Pos: noc.Coord{X: 1, Y: 0}},
			{Name: "aux0", Kind: tile.Aux, Pos: noc.Coord{X: 2, Y: 0}},
			{Name: "slm0", Kind: tile.SLM, Pos: noc.Coord{X: 0, Y: 1}},
			{Name: "acc0", Kind: tile.Accel, AccelName: "fft", Pos: noc.Coord{X: 1, Y: 1}},
			{Name: "acc1", Kind: tile.Accel, AccelName: "sort", Pos: noc.Coord{X: 2, Y: 1}},
		},
	}
	d, err := socgen.Elaborate(cfg, accel.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.RPs) != 0 {
		t.Fatalf("monolithic SoC has %d partitions", len(d.RPs))
	}
	// Native accelerator tiles and the SLM are part of the static design.
	if len(d.StaticModules) != 6 {
		t.Fatalf("static modules: %d", len(d.StaticModules))
	}
	res, err := RunPRESP(context.Background(), d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy.Kind != core.Serial || len(res.PartialBitstreams) != 0 {
		t.Fatal("monolithic compile produced DFX artifacts")
	}
	if res.FullBitstream == nil {
		t.Fatal("no full bitstream")
	}
	if res.Total <= 0 {
		t.Fatal("no compile time")
	}
}

// TestThirdPartyNVDLAFlows: the third-party NVDLA integrates into a
// reconfigurable tile structurally — the flow floorplans, implements
// and generates a partial bitstream for it like any accelerator.
func TestThirdPartyNVDLAFlows(t *testing.T) {
	reg := accel.Default()
	if err := reg.Register(accel.NVDLA()); err != nil {
		t.Fatal(err)
	}
	cfg := &socgen.Config{
		Name: "nvdla-soc", Board: "VC707", Cols: 2, Rows: 2, FreqHz: 78e6,
		Tiles: []tile.Tile{
			{Name: "cpu0", Kind: tile.CPU, Pos: noc.Coord{X: 0, Y: 0}},
			{Name: "mem0", Kind: tile.Mem, Pos: noc.Coord{X: 1, Y: 0}},
			{Name: "aux0", Kind: tile.Aux, Pos: noc.Coord{X: 0, Y: 1}},
			{Name: "rt_1", Kind: tile.Reconf, AccelName: "nvdla", Pos: noc.Coord{X: 1, Y: 1}},
		},
	}
	d, err := socgen.Elaborate(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPRESP(context.Background(), d, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PartialBitstreams) != 1 {
		t.Fatal("no partial bitstream for the NVDLA partition")
	}
	// A single huge partition: class 2.2, serial implementation.
	if res.Strategy.Class != core.Class22 || res.Strategy.Kind != core.Serial {
		t.Fatalf("NVDLA SoC: class %s strategy %s", res.Strategy.Class, res.Strategy.Kind)
	}
	// Its pblock must actually cover ~88k LUTs.
	pb := res.Plan.Pblocks["rt_1_rp"]
	if pb.ResourcesOn(d.Dev)[fpga.LUT] < 88000 {
		t.Fatal("NVDLA partition under-provisioned")
	}
}
