package reconfig

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"presp/internal/accel"
	"presp/internal/faultinject"
	"presp/internal/flow"
	"presp/internal/noc"
	"presp/internal/sim"
	"presp/internal/socgen"
	"presp/internal/tile"
)

// newFaultTestbed boots the standard 2x2 testbed with an explicit
// runtime configuration (the fault tests vary retries, thresholds and
// the fault plan) and an optional worker bound for bitstream
// generation.
func newFaultTestbed(t *testing.T, cfg Config, workers int) *testbed {
	t.Helper()
	reg := accel.Default()
	scfg := &socgen.Config{
		Name: "tb", Board: "VC707", Cols: 2, Rows: 2, FreqHz: 78e6,
		Tiles: []tile.Tile{
			{Name: "cpu0", Kind: tile.CPU, Pos: noc.Coord{X: 0, Y: 0}},
			{Name: "mem0", Kind: tile.Mem, Pos: noc.Coord{X: 1, Y: 0}},
			{Name: "aux0", Kind: tile.Aux, Pos: noc.Coord{X: 0, Y: 1}},
			{Name: "rt_1", Kind: tile.Reconf, AccelName: "fft", Pos: noc.Coord{X: 1, Y: 1}},
		},
	}
	d, err := socgen.Elaborate(scfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := flow.FloorplanDesign(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	rt, err := New(eng, d, reg, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bss, err := flow.GenerateRuntimeBitstreams(context.Background(), d, plan, map[string][]string{
		"rt_1": {"fft", "gemm", "sort"},
	}, reg, true, workers)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterBitstreams(bss); err != nil {
		t.Fatal(err)
	}
	return &testbed{eng: eng, rt: rt, reg: reg, plan: plan}
}

func faultCfg(plan *faultinject.Plan, retries, deadAt int) Config {
	cfg := DefaultConfig()
	cfg.FaultPlan = plan
	cfg.MaxReconfigRetries = retries
	cfg.TileDeadThreshold = deadAt
	return cfg
}

// assertTileClean asserts the full set of post-recovery invariants the
// issue names: queues re-coupled, no residual PRC power, no stuck
// swap-in-progress state.
func assertTileClean(t *testing.T, tb *testbed) {
	t.Helper()
	pos := noc.Coord{X: 1, Y: 1}
	if tb.rt.Network().Decoupled(pos) {
		t.Fatal("tile left decoupled after failure")
	}
	if w := tb.rt.Meter().Power("prc"); w != 0 {
		t.Fatalf("residual PRC power after failure: %g W", w)
	}
	ts := tb.rt.tiles["rt_1"]
	if ts.reconfig || ts.pending != "" {
		t.Fatalf("stuck swap state: reconfig=%v pending=%q", ts.reconfig, ts.pending)
	}
	if tb.rt.prcBusy && len(tb.rt.workqueue) == 0 {
		t.Fatal("PRC wedged busy with an empty workqueue")
	}
}

// TestTransferFailureRecovery is the regression test for the original
// bug: a failed DMA fetch after a successful decouple must not leave
// the tile gated or the PRC rail powered, and the tile must remain
// usable.
func TestTransferFailureRecovery(t *testing.T) {
	// Persistent DMA-plane fault, no retries: the first swap fails hard.
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Op: faultinject.OpTransfer, Site: "dma", Count: 1},
	}}
	tb := newFaultTestbed(t, faultCfg(plan, 0, 0), 0)

	var gotErr error
	tb.rt.RequestReconfig("rt_1", "gemm", func(err error) { gotErr = err })
	tb.drain()
	if gotErr == nil {
		t.Fatal("faulted swap reported success")
	}
	if _, ok := faultinject.As(gotErr); !ok {
		t.Fatalf("expected injected fault, got %v", gotErr)
	}
	assertTileClean(t, tb)
	st := tb.rt.Stats()
	if st.FailedReconfigs != 1 || st.Reconfigurations != 0 || st.Retries != 0 {
		t.Fatalf("stats after failure: %+v", st)
	}

	// The failure is observable in the timeline.
	tl := tb.rt.Timeline()
	if len(tl) != 1 || !tl[0].Failed || tl[0].Err == "" || tl[0].Attempts != 1 {
		t.Fatalf("failure not recorded: %+v", tl)
	}

	// The fault was one-shot: the same tile reconfigures and computes.
	if err := reconfigureSync(tb, "rt_1", "gemm"); err != nil {
		t.Fatalf("tile unusable after recovery: %v", err)
	}
	var res *InvokeResult
	tb.rt.InvokeOn("rt_1", "sort", [][]float64{{3, 1, 2}}, func(r *InvokeResult, err error) {
		if err != nil {
			t.Error(err)
		}
		res = r
	})
	tb.drain()
	if res == nil || res.OnCPU {
		t.Fatalf("post-recovery invocation wrong: %+v", res)
	}
	if res.Out[0][0] != 1 || res.Out[0][2] != 3 {
		t.Fatalf("post-recovery output: %v", res.Out[0])
	}
}

func reconfigureSync(tb *testbed, tileName, accName string) error {
	var rerr error
	done := false
	tb.rt.RequestReconfig(tileName, accName, func(err error) { rerr, done = err, true })
	tb.drain()
	if !done {
		return fmt.Errorf("reconfiguration never completed")
	}
	return rerr
}

// TestTransientICAPFaultRetries: a one-shot ICAP fault is absorbed by
// the retry policy; the caller never sees it.
func TestTransientICAPFaultRetries(t *testing.T) {
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Op: faultinject.OpICAP, Site: "rt_1", Count: 1},
	}}
	tb := newFaultTestbed(t, faultCfg(plan, 2, 3), 0)
	if err := reconfigureSync(tb, "rt_1", "gemm"); err != nil {
		t.Fatalf("transient fault escaped the retry policy: %v", err)
	}
	st := tb.rt.Stats()
	if st.Retries != 1 || st.Reconfigurations != 1 || st.FailedReconfigs != 0 {
		t.Fatalf("stats: %+v", st)
	}
	tl := tb.rt.Timeline()
	if len(tl) != 1 || tl[0].Failed || tl[0].Attempts != 2 {
		t.Fatalf("timeline should show one success in two attempts: %+v", tl)
	}
	assertTileClean(t, tb)
	if loaded, _ := tb.rt.Loaded("rt_1"); loaded != "gemm" {
		t.Fatalf("loaded after retry: %q", loaded)
	}
}

// TestCRCCorruptionRetries: an injected fetch corruption is caught by
// the bitstream CRC verification and retried like any transient fault.
func TestCRCCorruptionRetries(t *testing.T) {
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Op: faultinject.OpFetchCRC, Site: "rt_1", Count: 1},
	}}
	tb := newFaultTestbed(t, faultCfg(plan, 1, 0), 0)
	if err := reconfigureSync(tb, "rt_1", "gemm"); err != nil {
		t.Fatalf("corrupted fetch not retried: %v", err)
	}
	if st := tb.rt.Stats(); st.Retries != 1 || st.Reconfigurations != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// Without retries the CRC error surfaces to the caller.
	plan2 := &faultinject.Plan{Rules: []faultinject.Rule{
		{Op: faultinject.OpFetchCRC, Site: "rt_1", Count: 1},
	}}
	tb2 := newFaultTestbed(t, faultCfg(plan2, 0, 0), 0)
	err := reconfigureSync(tb2, "rt_1", "gemm")
	if err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("expected CRC mismatch, got %v", err)
	}
	assertTileClean(t, tb2)
}

// TestDecoupleAndRecoupleFaults: faults on both decoupler edges are
// recovered; a stuck disengage is force-reset, never wedging the tile.
func TestDecoupleAndRecoupleFaults(t *testing.T) {
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Op: faultinject.OpDecouple, Site: "rt_1", Count: 1},
		{Op: faultinject.OpRecouple, Site: "rt_1", After: 0, Count: 1},
	}}
	tb := newFaultTestbed(t, faultCfg(plan, 3, 0), 0)
	if err := reconfigureSync(tb, "rt_1", "gemm"); err != nil {
		t.Fatalf("decoupler faults not absorbed: %v", err)
	}
	// Attempt 1 dies at decouple, attempt 2 dies at the stuck
	// disengage (after the ICAP programmed!), attempt 3 succeeds.
	if st := tb.rt.Stats(); st.Retries != 2 || st.Reconfigurations != 1 {
		t.Fatalf("stats: %+v", st)
	}
	assertTileClean(t, tb)
}

// TestPersistentFaultKillsTileAndDegradesToCPU: the acceptance
// scenario — a persistent tile fault exhausts retries repeatedly, the
// manager declares the tile dead, and the workload completes on the
// processor with the tile re-coupled and no residual power.
func TestPersistentFaultKillsTileAndDegradesToCPU(t *testing.T) {
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Op: faultinject.OpICAP, Site: "rt_1", Count: -1},
	}}
	tb := newFaultTestbed(t, faultCfg(plan, 1, 2), 0)

	// Two failed demand swaps cross the dead threshold.
	for i := 0; i < 2; i++ {
		if err := reconfigureSync(tb, "rt_1", "gemm"); err == nil {
			t.Fatalf("swap %d against a persistent fault succeeded", i)
		}
	}
	dead, err := tb.rt.Dead("rt_1")
	if err != nil || !dead {
		t.Fatalf("tile not declared dead: dead=%v err=%v", dead, err)
	}
	st := tb.rt.Stats()
	if st.FailedReconfigs != 2 || st.DeadTiles != 1 || st.Retries != 2 {
		t.Fatalf("stats: %+v", st)
	}
	assertTileClean(t, tb)

	// Requests against the dead tile fail fast with a typed error...
	rerr := reconfigureSync(tb, "rt_1", "sort")
	var dt *ErrTileDead
	if !errors.As(rerr, &dt) || dt.Tile != "rt_1" {
		t.Fatalf("expected ErrTileDead, got %v", rerr)
	}
	// ...but invocations gracefully degrade to the CPU and still
	// compute the right answer.
	var res *InvokeResult
	tb.rt.InvokeOn("rt_1", "sort", [][]float64{{9, 4, 7, 1}}, func(r *InvokeResult, err error) {
		if err != nil {
			t.Error(err)
		}
		res = r
	})
	tb.drain()
	if res == nil || !res.OnCPU {
		t.Fatalf("dead tile did not degrade to CPU: %+v", res)
	}
	if res.Out[0][0] != 1 || res.Out[0][3] != 9 {
		t.Fatalf("CPU fallback output: %v", res.Out[0])
	}
	if tb.rt.Stats().CPUFallbacks != 1 {
		t.Fatalf("fallback not counted: %+v", tb.rt.Stats())
	}
	assertTileClean(t, tb)
}

// TestInvokeDegradesWhenSwapKillsTile: the tile dies during the very
// swap an invocation demanded; the invocation still completes, on the
// processor.
func TestInvokeDegradesWhenSwapKillsTile(t *testing.T) {
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Op: faultinject.OpICAP, Site: "rt_1", Count: -1},
	}}
	tb := newFaultTestbed(t, faultCfg(plan, 0, 1), 0)
	var res *InvokeResult
	tb.rt.InvokeOn("rt_1", "gemm", [][]float64{{1, 0, 0, 1}, {5, 6, 7, 8}}, func(r *InvokeResult, err error) {
		if err != nil {
			t.Error(err)
		}
		res = r
	})
	tb.drain()
	if res == nil || !res.OnCPU {
		t.Fatalf("invocation did not degrade: %+v", res)
	}
	if res.Out[0][0] != 5 || res.Out[0][3] != 8 {
		t.Fatalf("degraded gemm output: %v", res.Out[0])
	}
	assertTileClean(t, tb)
}

// TestPrefetchErrorCounted: a failed speculative load surfaces in
// Stats.PrefetchErrors instead of vanishing, and leaves the tile clean.
func TestPrefetchErrorCounted(t *testing.T) {
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Op: faultinject.OpTransfer, Site: "dma", Count: 1},
	}}
	tb := newFaultTestbed(t, faultCfg(plan, 0, 0), 0)
	tb.rt.Prefetch("rt_1", "gemm")
	tb.drain()
	st := tb.rt.Stats()
	if st.PrefetchErrors != 1 {
		t.Fatalf("prefetch error not counted: %+v", st)
	}
	assertTileClean(t, tb)
	// A successful prefetch does not touch the counter.
	tb.rt.Prefetch("rt_1", "gemm")
	tb.drain()
	if st := tb.rt.Stats(); st.PrefetchErrors != 1 || st.Reconfigurations != 1 {
		t.Fatalf("stats after clean prefetch: %+v", st)
	}
}

// TestKernelFaultSurfaces: an injected kernel fault aborts the
// invocation with the fault error and releases the tile.
func TestKernelFaultSurfaces(t *testing.T) {
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Op: faultinject.OpKernel, Site: "fft", Count: 1},
	}}
	tb := newFaultTestbed(t, faultCfg(plan, 0, 0), 0)
	var gotErr error
	tb.rt.InvokeOn("rt_1", "fft", [][]float64{{1, 0, 0, 0}}, func(_ *InvokeResult, err error) { gotErr = err })
	tb.drain()
	if _, ok := faultinject.As(gotErr); !ok {
		t.Fatalf("kernel fault not delivered: %v", gotErr)
	}
	// The tile is released: the retry computes.
	var res *InvokeResult
	tb.rt.InvokeOn("rt_1", "fft", [][]float64{{1, 0, 0, 0}}, func(r *InvokeResult, err error) {
		if err != nil {
			t.Error(err)
		}
		res = r
	})
	tb.drain()
	if res == nil || res.Out[0][0] != 1 {
		t.Fatalf("retry after kernel fault: %+v", res)
	}
}

// faultStormSignature runs a fixed workload under a seeded fault storm
// and renders every observable — stats, timeline, energy, injected
// fault count — into one string.
func faultStormSignature(t *testing.T, workers int) string {
	t.Helper()
	plan := &faultinject.Plan{
		Seed: 1234,
		Rules: []faultinject.Rule{
			{Op: faultinject.OpICAP, Rate: 0.4},
			{Op: faultinject.OpFetchCRC, Rate: 0.3},
			{Op: faultinject.OpRecouple, Site: "rt_1", After: 2, Count: 1},
		},
	}
	tb := newFaultTestbed(t, faultCfg(plan, 2, 0), workers)
	accs := []string{"gemm", "sort", "fft", "sort", "gemm", "fft", "gemm"}
	for _, acc := range accs {
		_ = reconfigureSync(tb, "rt_1", acc) // errors are part of the signature via stats
	}
	var b strings.Builder
	fmt.Fprintf(&b, "stats=%+v\n", tb.rt.Stats())
	fmt.Fprintf(&b, "energy=%x faults=%d now=%d\n",
		tb.rt.Meter().TotalEnergy(), tb.rt.FaultsInjected(), tb.rt.Engine().Now())
	for _, ev := range tb.rt.Timeline() {
		fmt.Fprintf(&b, "ev %d %d %s %s %d %d %v %q\n",
			ev.Start, ev.End, ev.Tile, ev.Accel, ev.Bytes, ev.Attempts, ev.Failed, ev.Err)
	}
	return b.String()
}

// TestFaultPlanDeterminism: the same seeded plan yields byte-identical
// stats, energy and timelines across repeated runs and across
// bitstream sets generated with different flow worker counts.
func TestFaultPlanDeterminism(t *testing.T) {
	base := faultStormSignature(t, 1)
	for run, workers := range []int{1, 2, 8, 1} {
		if sig := faultStormSignature(t, workers); sig != base {
			t.Fatalf("run %d (workers=%d) diverged:\n--- base\n%s--- got\n%s", run, workers, base, sig)
		}
	}
	if !strings.Contains(base, "Retries") || strings.Contains(base, "faults=0 ") {
		t.Fatalf("storm signature suspiciously quiet:\n%s", base)
	}
}

// TestLeakageFoldIsOrderIndependent: with several configured tiles the
// leakage term must come out of a sorted fold; two identical SoCs
// always meter the same leakage power.
func TestLeakageFoldIsOrderIndependent(t *testing.T) {
	build := func() *Runtime {
		reg := accel.Default()
		cfg := &socgen.Config{
			Name: "leak", Board: "VC707", Cols: 3, Rows: 2, FreqHz: 78e6,
			Tiles: []tile.Tile{
				{Name: "cpu0", Kind: tile.CPU, Pos: noc.Coord{X: 0, Y: 0}},
				{Name: "mem0", Kind: tile.Mem, Pos: noc.Coord{X: 1, Y: 0}},
				{Name: "aux0", Kind: tile.Aux, Pos: noc.Coord{X: 2, Y: 0}},
				{Name: "rt_1", Kind: tile.Reconf, AccelName: "fft", Pos: noc.Coord{X: 0, Y: 1}},
				{Name: "rt_2", Kind: tile.Reconf, AccelName: "gemm", Pos: noc.Coord{X: 1, Y: 1}},
				{Name: "rt_3", Kind: tile.Reconf, AccelName: "sort", Pos: noc.Coord{X: 2, Y: 1}},
			},
		}
		d, err := socgen.Elaborate(cfg, reg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := flow.FloorplanDesign(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(sim.NewEngine(), d, reg, plan, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	a, b := build(), build()
	for i := 0; i < 5; i++ {
		a.updateLeakagePower()
		b.updateLeakagePower()
	}
	pa, pb := a.Meter().Power("leakage"), b.Meter().Power("leakage")
	if pa != pb {
		t.Fatalf("leakage fold not deterministic: %x vs %x", pa, pb)
	}
	if pa <= 0 {
		t.Fatal("no leakage accounted")
	}
	if got := a.Tiles(); len(got) != 3 || got[0] != "rt_1" || got[2] != "rt_3" {
		t.Fatalf("Tiles() not sorted: %v", got)
	}
}

// TestRegisterBitstreamRejectsCorrupted: a corrupted image is refused
// at staging time, before it can ever reach the ICAP.
func TestRegisterBitstreamRejectsCorrupted(t *testing.T) {
	tb := newTestbed(t)
	reg := accel.Default()
	bss, err := flow.GenerateRuntimeBitstreams(context.Background(), tb.rt.design, tb.plan, map[string][]string{"rt_1": {"gemm"}}, reg, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := bss["rt_1"]["gemm"].CorruptedCopy(5)
	if err := tb.rt.RegisterBitstream("rt_1", "gemm", bad); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupted bitstream staged: %v", err)
	}
}
