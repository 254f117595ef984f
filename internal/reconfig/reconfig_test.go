package reconfig

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"presp/internal/accel"
	"presp/internal/bitstream"
	"presp/internal/floorplan"
	"presp/internal/flow"
	"presp/internal/noc"
	"presp/internal/sim"
	"presp/internal/socgen"
	"presp/internal/tile"
)

// testbed boots a 2x2 SoC with one reconfigurable tile (fft at boot)
// and bitstreams staged for fft, gemm and sort.
type testbed struct {
	eng  *sim.Engine
	rt   *Runtime
	reg  *accel.Registry
	plan *floorplan.Plan
}

func newTestbed(t *testing.T) *testbed {
	t.Helper()
	reg := accel.Default()
	cfg := &socgen.Config{
		Name: "tb", Board: "VC707", Cols: 2, Rows: 2, FreqHz: 78e6,
		Tiles: []tile.Tile{
			{Name: "cpu0", Kind: tile.CPU, Pos: noc.Coord{X: 0, Y: 0}},
			{Name: "mem0", Kind: tile.Mem, Pos: noc.Coord{X: 1, Y: 0}},
			{Name: "aux0", Kind: tile.Aux, Pos: noc.Coord{X: 0, Y: 1}},
			{Name: "rt_1", Kind: tile.Reconf, AccelName: "fft", Pos: noc.Coord{X: 1, Y: 1}},
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
	eng := sim.NewEngine()
	rt, err := New(eng, d, reg, plan, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bss, err := flow.GenerateRuntimeBitstreams(context.Background(), d, plan, map[string][]string{
		"rt_1": {"fft", "gemm", "sort"},
	}, reg, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterBitstreams(bss); err != nil {
		t.Fatal(err)
	}
	return &testbed{eng: eng, rt: rt, reg: reg, plan: plan}
}

// drain runs the engine to completion.
func (tb *testbed) drain() { tb.eng.Run(0) }

func TestBootState(t *testing.T) {
	tb := newTestbed(t)
	loaded, err := tb.rt.Loaded("rt_1")
	if err != nil {
		t.Fatal(err)
	}
	if loaded != "fft" {
		t.Fatalf("boot accelerator: got %q want fft", loaded)
	}
	drv, err := tb.rt.Driver("rt_1")
	if err != nil {
		t.Fatal(err)
	}
	if drv != "fft" {
		t.Fatalf("boot driver: got %q", drv)
	}
	if len(tb.rt.Tiles()) != 1 {
		t.Fatalf("tiles: %v", tb.rt.Tiles())
	}
}

func TestReconfigSwapsLoadedAndDriver(t *testing.T) {
	tb := newTestbed(t)
	var done bool
	tb.rt.RequestReconfig("rt_1", "gemm", func(err error) {
		if err != nil {
			t.Error(err)
		}
		done = true
	})
	tb.drain()
	if !done {
		t.Fatal("reconfiguration never completed")
	}
	loaded, _ := tb.rt.Loaded("rt_1")
	drv, _ := tb.rt.Driver("rt_1")
	if loaded != "gemm" || drv != "gemm" {
		t.Fatalf("after swap: loaded=%q driver=%q", loaded, drv)
	}
	st := tb.rt.Stats()
	if st.Reconfigurations != 1 || st.ReconfigTime <= 0 || st.BytesConfigured <= 0 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestReconfigToSameAccIsNoop(t *testing.T) {
	tb := newTestbed(t)
	calls := 0
	tb.rt.RequestReconfig("rt_1", "fft", func(err error) {
		if err != nil {
			t.Error(err)
		}
		calls++
	})
	tb.drain()
	if calls != 1 {
		t.Fatal("callback not invoked")
	}
	if tb.rt.Stats().Reconfigurations != 0 {
		t.Fatal("no-op swap went through the PRC")
	}
}

func TestReconfigErrors(t *testing.T) {
	tb := newTestbed(t)
	var gotErr error
	tb.rt.RequestReconfig("rt_1", "conv2d", func(err error) { gotErr = err })
	tb.drain()
	if gotErr == nil || !strings.Contains(gotErr.Error(), "no bitstream") {
		t.Fatalf("unregistered bitstream: got %v", gotErr)
	}
	tb.rt.RequestReconfig("ghost", "fft", func(err error) { gotErr = err })
	tb.drain()
	if gotErr == nil {
		t.Fatal("unknown tile accepted")
	}
}

// TestRegisterBitstreamsSortedFirstFailure: a batch with several bad
// images always reports the one first in (tile, accelerator) order.
func TestRegisterBitstreamsSortedFirstFailure(t *testing.T) {
	tb := newTestbed(t)
	partial := &bitstream.Bitstream{Kind: bitstream.Partial, Data: []byte{1}}
	bss := map[string]map[string]*bitstream.Bitstream{
		"rt_1":  {"warp-drive": partial, "fft": nil},
		"ghost": {"fft": partial},
		"rt_2":  {"sort": nil},
	}
	first := ""
	for i := 0; i < 20; i++ {
		err := tb.rt.RegisterBitstreams(bss)
		if err == nil {
			t.Fatal("bad batch accepted")
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("first failure changed between runs: %q vs %q", err, first)
		}
	}
	if !strings.Contains(first, "ghost") {
		t.Fatalf("first failure %q is not the ghost tile's", first)
	}
}

func TestRegisterBitstreamValidation(t *testing.T) {
	tb := newTestbed(t)
	if err := tb.rt.RegisterBitstream("ghost", "fft", &bitstream.Bitstream{Kind: bitstream.Partial, Data: []byte{1}}); err == nil {
		t.Fatal("unknown tile accepted")
	}
	if err := tb.rt.RegisterBitstream("rt_1", "fft", nil); err == nil {
		t.Fatal("nil bitstream accepted")
	}
	if err := tb.rt.RegisterBitstream("rt_1", "fft", &bitstream.Bitstream{Kind: bitstream.Full, Data: []byte{1}}); err == nil {
		t.Fatal("full bitstream accepted through the PRC")
	}
	if err := tb.rt.RegisterBitstream("rt_1", "warp-drive", &bitstream.Bitstream{Kind: bitstream.Partial, Data: []byte{1}}); err == nil {
		t.Fatal("unknown accelerator accepted")
	}
	names, err := tb.rt.RegisteredBitstreams("rt_1")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("registered: %v", names)
	}
}

func TestInvokeComputesFunctionally(t *testing.T) {
	tb := newTestbed(t)
	var res *InvokeResult
	tb.rt.InvokeOn("rt_1", "fft", [][]float64{{1, 0, 0, 0}}, func(r *InvokeResult, err error) {
		if err != nil {
			t.Error(err)
		}
		res = r
	})
	tb.drain()
	if res == nil {
		t.Fatal("invocation never completed")
	}
	// FFT of an impulse: flat spectrum.
	for k := 0; k < 4; k++ {
		if res.Out[0][2*k] != 1 || res.Out[0][2*k+1] != 0 {
			t.Fatalf("fft output wrong: %v", res.Out[0])
		}
	}
	if res.Reconfigured {
		t.Fatal("boot-loaded accelerator should not reconfigure")
	}
	if res.End <= res.Start {
		t.Fatal("invocation took no virtual time")
	}
}

func TestInvokeTriggersSwap(t *testing.T) {
	tb := newTestbed(t)
	var res *InvokeResult
	tb.rt.InvokeOn("rt_1", "sort", [][]float64{{3, 1, 2}}, func(r *InvokeResult, err error) {
		if err != nil {
			t.Error(err)
		}
		res = r
	})
	tb.drain()
	if res == nil {
		t.Fatal("invocation never completed")
	}
	if !res.Reconfigured {
		t.Fatal("swap not reported")
	}
	if res.Out[0][0] != 1 || res.Out[0][1] != 2 || res.Out[0][2] != 3 {
		t.Fatalf("sort output: %v", res.Out[0])
	}
	if tb.rt.Stats().Reconfigurations != 1 {
		t.Fatal("swap not counted")
	}
}

// TestWorkqueueSerializesSwaps: two requests race for the single PRC;
// both complete, in order, and the tile ends on the second accelerator.
func TestWorkqueueSerializesSwaps(t *testing.T) {
	tb := newTestbed(t)
	var order []string
	tb.rt.RequestReconfig("rt_1", "gemm", func(err error) {
		if err != nil {
			t.Error(err)
		}
		order = append(order, "gemm")
	})
	tb.rt.RequestReconfig("rt_1", "sort", func(err error) {
		if err != nil {
			t.Error(err)
		}
		order = append(order, "sort")
	})
	tb.drain()
	if len(order) != 2 || order[0] != "gemm" || order[1] != "sort" {
		t.Fatalf("swap order: %v", order)
	}
	loaded, _ := tb.rt.Loaded("rt_1")
	if loaded != "sort" {
		t.Fatalf("final accelerator: %q", loaded)
	}
	if tb.rt.Stats().Reconfigurations != 2 {
		t.Fatalf("reconfigurations: %d", tb.rt.Stats().Reconfigurations)
	}
}

// TestInvokeWaitsForReconfig: an invocation issued while the tile is
// being reprogrammed must wait for the interrupt and then run on the
// new accelerator.
func TestInvokeWaitsForReconfig(t *testing.T) {
	tb := newTestbed(t)
	var invokeDone, swapDone sim.Time
	tb.rt.RequestReconfig("rt_1", "gemm", func(err error) {
		if err != nil {
			t.Error(err)
		}
		swapDone = tb.eng.Now()
	})
	tb.rt.InvokeOn("rt_1", "gemm", [][]float64{{1, 0, 0, 1}, {1, 2, 3, 4}}, func(r *InvokeResult, err error) {
		if err != nil {
			t.Error(err)
		}
		invokeDone = tb.eng.Now()
	})
	tb.drain()
	if swapDone == 0 || invokeDone == 0 {
		t.Fatal("operations did not complete")
	}
	if invokeDone <= swapDone {
		t.Fatal("invocation finished before the reconfiguration")
	}
}

// TestDecouplingDuringReconfig: while the PRC programs the tile its NoC
// queues are gated, and they are re-enabled afterwards.
func TestDecouplingDuringReconfig(t *testing.T) {
	tb := newTestbed(t)
	pos := noc.Coord{X: 1, Y: 1}
	sawDecoupled := false
	probe := func() {
		if tb.rt.Network().Decoupled(pos) {
			sawDecoupled = true
		}
	}
	// Sample the decoupler state while the swap is in flight.
	for us := 1; us < 20000; us += 200 {
		if err := tb.eng.Schedule(sim.Time(us)*1000, probe); err != nil {
			t.Fatal(err)
		}
	}
	tb.rt.RequestReconfig("rt_1", "gemm", nil)
	tb.drain()
	if !sawDecoupled {
		t.Fatal("tile never decoupled during reconfiguration")
	}
	if tb.rt.Network().Decoupled(pos) {
		t.Fatal("tile left decoupled after the swap")
	}
}

func TestCPUFallbackSerializes(t *testing.T) {
	tb := newTestbed(t)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		tb.rt.RunOnCPU("mac", [][]float64{{1, 2, 3}, {4, 5, 6}}, func(r *InvokeResult, err error) {
			if err != nil {
				t.Error(err)
			}
			if !r.OnCPU {
				t.Error("fallback not marked OnCPU")
			}
			if r.Out[0][0] != 32 {
				t.Errorf("mac on cpu: got %g", r.Out[0][0])
			}
			ends = append(ends, r.End)
		})
	}
	tb.drain()
	if len(ends) != 3 {
		t.Fatalf("completions: %d", len(ends))
	}
	if !(ends[0] < ends[1] && ends[1] < ends[2]) {
		t.Fatalf("software kernels overlapped: %v", ends)
	}
	if tb.rt.Stats().CPUFallbacks != 3 {
		t.Fatalf("fallback count: %d", tb.rt.Stats().CPUFallbacks)
	}
}

func TestEnergyAccounting(t *testing.T) {
	tb := newTestbed(t)
	tb.rt.InvokeOn("rt_1", "gemm", [][]float64{{1, 0, 0, 1}, {5, 6, 7, 8}}, nil)
	tb.drain()
	if e := tb.rt.Meter().TotalEnergy(); e <= 0 {
		t.Fatalf("no energy accounted: %g", e)
	}
	if tb.rt.Meter().Energy("leakage") <= 0 {
		t.Fatal("configured-fabric leakage not accounted")
	}
}

func TestPrefetchLoadsAhead(t *testing.T) {
	tb := newTestbed(t)
	tb.rt.Prefetch("rt_1", "sort")
	tb.drain()
	loaded, _ := tb.rt.Loaded("rt_1")
	if loaded != "sort" {
		t.Fatalf("prefetch did not load: %q", loaded)
	}
}

func TestCompressionSpeedsReconfiguration(t *testing.T) {
	// The paper enables bitstream compression to reduce reconfiguration
	// latency; the model must reflect that.
	run := func(compress bool) sim.Time {
		tb := newTestbed(t)
		// Re-stage with the requested compression.
		reg := accel.Default()
		d := tb.rt.design
		bss, err := flow.GenerateRuntimeBitstreams(context.Background(), d, tb.plan, map[string][]string{"rt_1": {"gemm"}}, reg, compress, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.rt.RegisterBitstream("rt_1", "gemm", bss["rt_1"]["gemm"]); err != nil {
			t.Fatal(err)
		}
		tb.rt.RequestReconfig("rt_1", "gemm", nil)
		tb.drain()
		return tb.rt.Stats().ReconfigTime
	}
	compressed := run(true)
	raw := run(false)
	if compressed >= raw {
		t.Fatalf("compression did not speed up reconfiguration: %v vs %v", compressed, raw)
	}
	if raw > 4*compressed {
		t.Logf("compression gain: %.1fx", float64(raw)/float64(compressed))
	}
}

func TestNewValidation(t *testing.T) {
	reg := accel.Default()
	d, err := socgen.Elaborate(socgen.SOC2(), reg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := flow.FloorplanDesign(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, d, reg, plan, DefaultConfig()); err == nil {
		t.Fatal("nil engine accepted")
	}
}

func TestBaremetalDriver(t *testing.T) {
	tb := newTestbed(t)
	bm, err := NewBaremetal(tb.rt)
	if err != nil {
		t.Fatal(err)
	}
	// Invoking an accelerator that is not loaded fails: baremetal
	// applications reconfigure explicitly.
	if _, err := bm.Invoke("rt_1", "gemm", [][]float64{{1}, {1}}); err == nil {
		t.Fatal("baremetal demand-swap accepted")
	}
	if err := bm.Reconfigure("rt_1", "gemm"); err != nil {
		t.Fatal(err)
	}
	loaded, err := bm.Loaded("rt_1")
	if err != nil {
		t.Fatal(err)
	}
	if loaded != "gemm" {
		t.Fatalf("loaded: %q", loaded)
	}
	res, err := bm.Invoke("rt_1", "gemm", [][]float64{{1, 0, 0, 1}, {9, 8, 7, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out[0][0] != 9 || res.Out[0][3] != 6 {
		t.Fatalf("gemm via baremetal: %v", res.Out[0])
	}
	if bm.Now() <= 0 {
		t.Fatal("virtual clock did not advance")
	}
	// Unknown tile.
	if err := bm.Reconfigure("ghost", "fft"); err == nil {
		t.Fatal("unknown tile accepted")
	}
	if _, err := NewBaremetal(nil); err == nil {
		t.Fatal("nil runtime accepted")
	}
}

func TestBaremetalRejectsBusyPRC(t *testing.T) {
	tb := newTestbed(t)
	bm, err := NewBaremetal(tb.rt)
	if err != nil {
		t.Fatal(err)
	}
	// Start a Linux-manager reconfiguration but do not drain the engine:
	// the PRC is mid-flight.
	tb.rt.RequestReconfig("rt_1", "gemm", nil)
	for i := 0; i < 3 && tb.eng.Pending() > 0; i++ {
		tb.eng.Step()
	}
	if !tb.rt.prcBusy {
		t.Skip("PRC not busy at this point in the sequence")
	}
	if err := bm.Reconfigure("rt_1", "sort"); err == nil {
		t.Fatal("baremetal driver queued behind a busy PRC")
	}
	tb.drain()
}

// TestDrainBeforeSwapAblation demonstrates why the manager forces
// callers to wait for the accelerator to drain (Section V): with the
// discipline disabled, a swap lands mid-execution and the in-flight
// invocation is aborted.
func TestDrainBeforeSwapAblation(t *testing.T) {
	// Safe mode: invocation and swap interleave correctly.
	tb := newTestbed(t)
	var invokeErr, swapErr error
	invoked := false
	tb.rt.InvokeOn("rt_1", "fft", [][]float64{make([]float64, 4096)}, func(r *InvokeResult, err error) {
		invokeErr = err
		invoked = true
	})
	tb.rt.RequestReconfig("rt_1", "gemm", func(err error) { swapErr = err })
	tb.drain()
	if !invoked || invokeErr != nil || swapErr != nil {
		t.Fatalf("safe mode: invoked=%v invokeErr=%v swapErr=%v", invoked, invokeErr, swapErr)
	}
	if loaded, _ := tb.rt.Loaded("rt_1"); loaded != "gemm" {
		t.Fatalf("safe mode final state: %q", loaded)
	}

	// Ablated mode: the same schedule aborts the invocation.
	reg := accel.Default()
	cfg2 := DefaultConfig()
	cfg2.UnsafeImmediateSwap = true
	d, err := socgen.Elaborate(&socgen.Config{
		Name: "tb2", Board: "VC707", Cols: 2, Rows: 2, FreqHz: 78e6,
		Tiles: []tile.Tile{
			{Name: "cpu0", Kind: tile.CPU, Pos: noc.Coord{X: 0, Y: 0}},
			{Name: "mem0", Kind: tile.Mem, Pos: noc.Coord{X: 1, Y: 0}},
			{Name: "aux0", Kind: tile.Aux, Pos: noc.Coord{X: 0, Y: 1}},
			{Name: "rt_1", Kind: tile.Reconf, AccelName: "fft", Pos: noc.Coord{X: 1, Y: 1}},
		},
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := flow.FloorplanDesign(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	rt, err := New(eng, d, reg, plan, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	bss, err := flow.GenerateRuntimeBitstreams(context.Background(), d, plan, map[string][]string{"rt_1": {"fft", "gemm"}}, reg, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterBitstreams(bss); err != nil {
		t.Fatal(err)
	}
	var abortErr error
	done := false
	// A long FFT (64k samples) so the swap lands mid-execution.
	rt.InvokeOn("rt_1", "fft", [][]float64{make([]float64, 65536)}, func(r *InvokeResult, err error) {
		abortErr = err
		done = true
	})
	rt.RequestReconfig("rt_1", "gemm", nil)
	eng.Run(0)
	if !done {
		t.Fatal("invocation never resolved")
	}
	if abortErr == nil || !strings.Contains(abortErr.Error(), "swapped out") {
		t.Fatalf("unsafe mode should abort the in-flight invocation, got %v", abortErr)
	}
}

// TestSharedDMAPlaneSlowsReconfig: routing bitstream fetches over the
// memory-response plane makes them contend with accelerator DMA.
func TestSharedDMAPlaneSlowsReconfig(t *testing.T) {
	run := func(shared bool) sim.Time {
		reg := accel.Default()
		cfg := DefaultConfig()
		cfg.SharedDMAPlane = shared
		d, err := socgen.Elaborate(&socgen.Config{
			Name: "tb3", Board: "VC707", Cols: 2, Rows: 2, FreqHz: 78e6,
			Tiles: []tile.Tile{
				{Name: "cpu0", Kind: tile.CPU, Pos: noc.Coord{X: 0, Y: 0}},
				{Name: "mem0", Kind: tile.Mem, Pos: noc.Coord{X: 1, Y: 0}},
				{Name: "aux0", Kind: tile.Aux, Pos: noc.Coord{X: 0, Y: 1}},
				{Name: "rt_1", Kind: tile.Reconf, AccelName: "fft", Pos: noc.Coord{X: 1, Y: 1}},
			},
		}, reg)
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
		bss, err := flow.GenerateRuntimeBitstreams(context.Background(), d, plan, map[string][]string{"rt_1": {"fft", "gemm"}}, reg, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.RegisterBitstreams(bss); err != nil {
			t.Fatal(err)
		}
		// Saturate the memory-response plane on the aux tile's row with
		// a big DMA burst, then reconfigure: only the shared-plane
		// configuration contends with it. (mem -> aux is the bitstream
		// fetch path.)
		if _, err := rt.Network().Transfer(noc.PlaneMemRsp, noc.Coord{X: 1, Y: 0}, noc.Coord{X: 0, Y: 1}, 4<<20); err != nil {
			t.Fatal(err)
		}
		rt.RequestReconfig("rt_1", "gemm", nil)
		eng.Run(0)
		return rt.Stats().ReconfigTime
	}
	dedicated := run(false)
	shared := run(true)
	if shared <= dedicated {
		t.Fatalf("shared plane should be slower: %v vs %v", shared, dedicated)
	}
}

func TestLookupErrors(t *testing.T) {
	tb := newTestbed(t)
	if _, err := tb.rt.Loaded("ghost"); err == nil {
		t.Fatal("unknown tile Loaded accepted")
	}
	if _, err := tb.rt.Driver("ghost"); err == nil {
		t.Fatal("unknown tile Driver accepted")
	}
	if _, err := tb.rt.RegisteredBitstreams("ghost"); err == nil {
		t.Fatal("unknown tile RegisteredBitstreams accepted")
	}
	var invoked bool
	tb.rt.InvokeOn("ghost", "fft", nil, func(_ *InvokeResult, err error) {
		invoked = true
		if err == nil {
			t.Error("unknown tile invocation accepted")
		}
	})
	if !invoked {
		t.Fatal("callback not delivered")
	}
	tb.rt.InvokeOn("rt_1", "warp-drive", nil, func(_ *InvokeResult, err error) {
		if err == nil {
			t.Error("unknown accelerator invocation accepted")
		}
	})
	tb.rt.RunOnCPU("warp-drive", nil, func(_ *InvokeResult, err error) {
		if err == nil {
			t.Error("unknown CPU kernel accepted")
		}
	})
}

func TestTimelineRecordsSwaps(t *testing.T) {
	tb := newTestbed(t)
	tb.rt.RequestReconfig("rt_1", "gemm", nil)
	tb.rt.RequestReconfig("rt_1", "sort", nil)
	tb.drain()
	tl := tb.rt.Timeline()
	if len(tl) != 2 {
		t.Fatalf("timeline entries: %d", len(tl))
	}
	if tl[0].Accel != "gemm" || tl[1].Accel != "sort" {
		t.Fatalf("timeline order: %v", tl)
	}
	for _, ev := range tl {
		if ev.End <= ev.Start || ev.Bytes <= 0 || ev.Tile != "rt_1" {
			t.Fatalf("malformed event: %+v", ev)
		}
	}
	// The snapshot is a copy.
	tl[0].Accel = "mutated"
	if tb.rt.Timeline()[0].Accel == "mutated" {
		t.Fatal("Timeline exposes internal state")
	}
}

func TestCoalescedDuplicateSwaps(t *testing.T) {
	tb := newTestbed(t)
	done := 0
	for i := 0; i < 3; i++ {
		tb.rt.RequestReconfig("rt_1", "gemm", func(err error) {
			if err != nil {
				t.Error(err)
			}
			done++
		})
	}
	tb.drain()
	if done != 3 {
		t.Fatalf("callbacks delivered: %d", done)
	}
	if got := tb.rt.Stats().Reconfigurations; got != 1 {
		t.Fatalf("duplicate requests should coalesce into one swap, got %d", got)
	}
}

// TestRegisteredBitstreamsSorted pins the listing order. The staging
// table is a map; the fold used to return raw map iteration order, so
// the listing shuffled between calls (regression). Repeated calls make
// the old behavior fail with high probability.
func TestRegisteredBitstreamsSorted(t *testing.T) {
	tb := newTestbed(t)
	want := []string{"fft", "gemm", "sort"}
	for i := 0; i < 32; i++ {
		names, err := tb.rt.RegisteredBitstreams("rt_1")
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != len(want) {
			t.Fatalf("call %d: %v, want %v", i, names, want)
		}
		for j := range want {
			if names[j] != want[j] {
				t.Fatalf("call %d: unsorted listing %v, want %v", i, names, want)
			}
		}
	}
}

// diffInputs draws seeded inputs in the shape each accelerator's
// functional model takes.
var diffInputs = map[string]func(rng *rand.Rand) [][]float64{
	"mac":    func(rng *rand.Rand) [][]float64 { return [][]float64{randVec(rng, 256), randVec(rng, 256)} },
	"conv2d": func(rng *rand.Rand) [][]float64 { return [][]float64{randVec(rng, 16*16), randVec(rng, 3*3)} },
	"gemm":   func(rng *rand.Rand) [][]float64 { return [][]float64{randVec(rng, 12*12), randVec(rng, 12*12)} },
	"fft":    func(rng *rand.Rand) [][]float64 { return [][]float64{randVec(rng, 256)} },
	"sort":   func(rng *rand.Rand) [][]float64 { return [][]float64{randVec(rng, 300)} },
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// stageBitstream registers accName's partial bitstream for rt_1 unless
// the testbed already staged it.
func stageBitstream(t *testing.T, tb *testbed, accName string) {
	t.Helper()
	staged, err := tb.rt.RegisteredBitstreams("rt_1")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range staged {
		if n == accName {
			return
		}
	}
	bss, err := flow.GenerateRuntimeBitstreams(context.Background(), tb.rt.design, tb.plan,
		map[string][]string{"rt_1": {accName}}, tb.reg, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.rt.RegisterBitstreams(bss); err != nil {
		t.Fatal(err)
	}
}

// TestBaremetalMatchesManager is the differential leg between Section
// V's two driver interfaces. For every accelerator with a functional
// model, the same seeded inputs go through Baremetal.Reconfigure and
// Invoke on one runtime and through the Linux manager's demand-swapping
// InvokeOn on a fresh one: each call's outputs must be bit-identical,
// and a second call on the already-loaded tile must take the same
// virtual time on both paths.
func TestBaremetalMatchesManager(t *testing.T) {
	reg := accel.Default()
	for _, name := range reg.Names() {
		desc, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if desc.Kernel == nil {
			continue
		}
		t.Run(name, func(t *testing.T) {
			gen, ok := diffInputs[name]
			if !ok {
				t.Fatalf("no input generator for accelerator %s", name)
			}
			in := gen(rand.New(rand.NewSource(7)))

			bm := newTestbed(t)
			stageBitstream(t, bm, name)
			drv, err := NewBaremetal(bm.rt)
			if err != nil {
				t.Fatal(err)
			}
			if err := drv.Reconfigure("rt_1", name); err != nil {
				t.Fatal(err)
			}
			var bare [2]*InvokeResult
			for i := range bare {
				if bare[i], err = drv.Invoke("rt_1", name, in); err != nil {
					t.Fatalf("baremetal call %d: %v", i, err)
				}
			}

			lx := newTestbed(t)
			stageBitstream(t, lx, name)
			var linux [2]*InvokeResult
			for i := range linux {
				var ierr error
				lx.rt.InvokeOn("rt_1", name, in, func(r *InvokeResult, err error) { linux[i], ierr = r, err })
				lx.drain()
				if ierr != nil || linux[i] == nil {
					t.Fatalf("manager call %d: %v", i, ierr)
				}
			}

			for i := range bare {
				b, l := bare[i].Out, linux[i].Out
				if len(b) != len(l) {
					t.Fatalf("call %d: %d output tensors on baremetal, %d on the manager", i, len(b), len(l))
				}
				for k := range b {
					if len(b[k]) != len(l[k]) {
						t.Fatalf("call %d tensor %d: length %d vs %d", i, k, len(b[k]), len(l[k]))
					}
					for e := range b[k] {
						if math.Float64bits(b[k][e]) != math.Float64bits(l[k][e]) {
							t.Fatalf("call %d tensor %d[%d]: baremetal %v, manager %v", i, k, e, b[k][e], l[k][e])
						}
					}
				}
			}
			if linux[1].Reconfigured {
				t.Fatal("second manager call reconfigured a tile that already held the accelerator")
			}
			bd, ld := bare[1].End-bare[1].Start, linux[1].End-linux[1].Start
			if bd != ld || bd <= 0 {
				t.Fatalf("loaded-tile call took %v on baremetal, %v on the manager", bd, ld)
			}
		})
	}
}
