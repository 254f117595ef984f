package reconfig

import (
	"context"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"presp/internal/accel"
	"presp/internal/bitstream"
	"presp/internal/faultinject"
	"presp/internal/flow"
	"presp/internal/noc"
	"presp/internal/obs"
	"presp/internal/sim"
	"presp/internal/socgen"
	"presp/internal/tile"
)

// scrubCfg is faultCfg plus the health subsystem: a 20µs scrub period
// over 5µs SEU sample ticks, fast enough that even short workloads see
// several cycles.
func scrubCfg(plan *faultinject.Plan, retries, deadAt int) Config {
	cfg := faultCfg(plan, retries, deadAt)
	cfg.ScrubInterval = 20 * time.Microsecond
	cfg.SEUCheckInterval = 5 * time.Microsecond
	return cfg
}

// stormFor advances virtual time by at least span by running
// back-to-back invocations of the accelerator currently loaded in the
// tile — no swaps, so only scrub repairs rewrite config memory. The
// health tick chain runs only while application requests are in
// flight, so real work is what keeps the SEU process and the scrubber
// live (exactly as in the field: an idle, unclocked simulation has no
// passage of time for upsets to occupy).
func stormFor(t *testing.T, tb *testbed, tileName string, span sim.Time) {
	t.Helper()
	deadline := tb.eng.Now() + span
	for i := 0; tb.eng.Now() < deadline; i++ {
		if i > 100000 {
			t.Fatalf("storm stopped advancing virtual time at %v", tb.eng.Now())
		}
		acc, err := tb.rt.Loaded(tileName)
		if err != nil || acc == "" {
			t.Fatalf("loaded(%s) = %q, %v", tileName, acc, err)
		}
		called := false
		tb.rt.InvokeOn(tileName, acc, [][]float64{{1, 0, 0, 0}}, func(*InvokeResult, error) { called = true })
		tb.drain()
		if !called {
			t.Fatal("storm invocation never completed")
		}
	}
}

// newScrubTestbed boots a 3x2 SoC with two reconfigurable tiles (rt_1
// booting fft, rt_2 booting gemm) — the shape the PRC-arbitration test
// needs: one tile mid-reconfiguration while the other takes an upset.
func newScrubTestbed(t *testing.T, cfg Config, workers int) *testbed {
	t.Helper()
	reg := accel.Default()
	scfg := &socgen.Config{
		Name: "tbscrub", Board: "VC707", Cols: 3, Rows: 2, FreqHz: 78e6,
		Tiles: []tile.Tile{
			{Name: "cpu0", Kind: tile.CPU, Pos: noc.Coord{X: 0, Y: 0}},
			{Name: "mem0", Kind: tile.Mem, Pos: noc.Coord{X: 1, Y: 0}},
			{Name: "aux0", Kind: tile.Aux, Pos: noc.Coord{X: 2, Y: 0}},
			{Name: "rt_1", Kind: tile.Reconf, AccelName: "fft", Pos: noc.Coord{X: 0, Y: 1}},
			{Name: "rt_2", Kind: tile.Reconf, AccelName: "gemm", Pos: noc.Coord{X: 1, Y: 1}},
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
		"rt_2": {"fft", "gemm", "sort"},
	}, reg, true, workers)
	if err != nil {
		t.Fatal(err)
	}
	for tileName, accs := range bss {
		for acc, bs := range accs {
			if err := rt.RegisterBitstream(tileName, acc, bs); err != nil {
				t.Fatal(err)
			}
		}
	}
	return &testbed{eng: eng, rt: rt, reg: reg, plan: plan}
}

// TestScrubDetectsAndRepairsSingleUpset is the canonical cycle: one
// deterministic SEU lands in the resident image, the next scrub pass
// catches the readback/golden CRC mismatch, and the repair re-writes
// the golden partial bitstream through the ICAP — observable in the
// stats, the timeline (Repair-flagged event), the obs instruments and
// a clean post-repair ConfigHealth.
func TestScrubDetectsAndRepairsSingleUpset(t *testing.T) {
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Op: faultinject.OpSEU, Site: "rt_1", Count: 1},
	}}
	cfg := scrubCfg(plan, 1, 0)
	o := obs.New()
	cfg.Observer = o
	tb := newFaultTestbed(t, cfg, 0)

	pre, err := tb.rt.ConfigHealth("rt_1")
	if err != nil {
		t.Fatal(err)
	}
	if pre.Corrupted || pre.GoldenCRC == 0 || pre.Frames == 0 {
		t.Fatalf("boot config health wrong: %+v", pre)
	}

	stormFor(t, tb, "rt_1", time.Millisecond)

	st := tb.rt.Stats().Scrub
	if st.Upsets != 1 || st.Detected != 1 || st.Repaired != 1 || st.Uncorrectable != 0 {
		t.Fatalf("scrub stats: %+v", st)
	}
	if st.Cycles == 0 || st.Checks < st.Cycles {
		t.Fatalf("scrubber barely ran: %+v", st)
	}
	post, err := tb.rt.ConfigHealth("rt_1")
	if err != nil {
		t.Fatal(err)
	}
	if post.Corrupted || post.RepairPending || post.UpsetBits != 0 {
		t.Fatalf("tile not repaired: %+v", post)
	}
	if post.ReadbackCRC != post.GoldenCRC || post.GoldenCRC != pre.GoldenCRC {
		t.Fatalf("post-repair CRCs wrong: %+v (boot golden %08x)", post, pre.GoldenCRC)
	}

	// The repair is a real partial reconfiguration: Repair-flagged
	// timeline event, reconfiguration counters advanced, ICAP bytes
	// pushed.
	tl := tb.rt.Timeline()
	if len(tl) != 1 || !tl[0].Repair || tl[0].Failed || tl[0].Accel != "fft" || tl[0].Bytes == 0 {
		t.Fatalf("repair not in timeline: %+v", tl)
	}
	if s := tb.rt.Stats(); s.Reconfigurations != 1 || s.BytesConfigured == 0 {
		t.Fatalf("repair did not count as reconfiguration: %+v", s)
	}
	assertTileClean(t, tb)

	// Observability: counters mirror the stats, the MTTR histogram saw
	// the detection-to-repair latency, and the per-tile instants exist.
	m := o.Metrics()
	for name, want := range map[string]int64{
		"scrub_upsets_total":        1,
		"scrub_detected_total":      1,
		"scrub_repaired_total":      1,
		"scrub_uncorrectable_total": 0,
	} {
		if got := m.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if m.Counter("scrub_cycles_total").Value() == 0 {
		t.Error("scrub_cycles_total never advanced")
	}
	mttr := m.Histogram("scrub_mttr_usec").Snapshot()
	if mttr.Count != 1 || mttr.Sum <= 0 {
		t.Errorf("MTTR histogram: %+v", mttr)
	}
	evs := o.Tracer().Events()
	for _, name := range []string{"seu rt_1", "detect rt_1", "repair rt_1"} {
		if obs.CountInstants(evs, "scrub", name) != 1 {
			t.Errorf("trace instant %q missing", name)
		}
	}
}

// TestGoldenCRCIsImageCRC: the golden CRC the scrubber compares
// readback against is the CRC of the programmed payload — after the
// boot-time program, a demand swap and a scrub repair, which take it
// from the image's verified checksum, and for an image that records no
// checksum, which is hashed when programmed.
func TestGoldenCRCIsImageCRC(t *testing.T) {
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Op: faultinject.OpSEU, Site: "rt_1", Count: 1},
	}}
	tb := newFaultTestbed(t, scrubCfg(plan, 1, 0), 0)
	check := func(after string) {
		t.Helper()
		mem := tb.rt.tiles["rt_1"].mem
		if mem == nil || mem.goldenCRC != crc32.ChecksumIEEE(mem.golden.Data) {
			t.Fatalf("after %s: golden CRC does not match the programmed image", after)
		}
	}
	check("boot")
	swapped := false
	tb.rt.RequestReconfig("rt_1", "gemm", func(err error) {
		if err != nil {
			t.Errorf("swap: %v", err)
		}
		swapped = true
	})
	tb.drain()
	if !swapped {
		t.Fatal("swap never completed")
	}
	check("swap")
	stormFor(t, tb, "rt_1", time.Millisecond)
	if st := tb.rt.Stats().Scrub; st.Repaired != 1 {
		t.Fatalf("scrub stats: %+v, want one repair", st)
	}
	check("repair")

	m := newConfigMem()
	m.program(&bitstream.Bitstream{Name: "hand-built", Kind: bitstream.Partial, Frames: 1, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}})
	if m.goldenCRC != crc32.ChecksumIEEE(m.golden.Data) {
		t.Fatal("image without a checksum: golden CRC does not match its payload")
	}
}

// TestScrubRepairWaitsForInFlightReconfig pins the scrub-vs-reconfig
// arbitration: an upset detected while the single PRC is programming
// another tile queues its repair behind the demand swap — the repair
// starts no earlier than the swap completes, never interleaving with
// it.
func TestScrubRepairWaitsForInFlightReconfig(t *testing.T) {
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Op: faultinject.OpSEU, Site: "rt_2", Count: 1},
	}}
	tb := newScrubTestbed(t, scrubCfg(plan, 1, 0), 0)

	// Kick off a demand swap on rt_1; its ICAP program spans well past
	// the first scrub cycle, so rt_2's repair must queue behind it.
	var swapErr error
	tb.rt.RequestReconfig("rt_1", "sort", func(err error) { swapErr = err })
	tb.drain()
	if swapErr != nil {
		t.Fatal(swapErr)
	}

	tl := tb.rt.Timeline()
	if len(tl) != 2 {
		t.Fatalf("expected demand swap + repair, got %+v", tl)
	}
	swap, repair := tl[0], tl[1]
	if swap.Repair || swap.Tile != "rt_1" || swap.Accel != "sort" {
		t.Fatalf("first event is not the demand swap: %+v", swap)
	}
	if !repair.Repair || repair.Tile != "rt_2" || repair.Accel != "gemm" {
		t.Fatalf("second event is not the rt_2 repair: %+v", repair)
	}
	if repair.Start < swap.End {
		t.Fatalf("repair interleaved with the demand swap: repair start %v < swap end %v",
			repair.Start, swap.End)
	}
	st := tb.rt.Stats().Scrub
	if st.Detected != 1 || st.Repaired != 1 {
		t.Fatalf("scrub stats: %+v", st)
	}
	h2, _ := tb.rt.ConfigHealth("rt_2")
	if h2.Corrupted || h2.RepairPending {
		t.Fatalf("rt_2 not repaired: %+v", h2)
	}
}

// TestUncorrectableUpsetEscalatesToDeadTile: when every repair attempt
// fails (persistent ICAP fault), the scrubber's repairs burn through
// the same retry/dead-tile policy as demand swaps — the tile is
// declared dead, scrubbing leaves it alone, and invocations degrade to
// the CPU fallback with correct results.
func TestUncorrectableUpsetEscalatesToDeadTile(t *testing.T) {
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Op: faultinject.OpSEU, Site: "rt_1", Count: 1},
		{Op: faultinject.OpICAP, Site: "rt_1", Count: -1},
	}}
	tb := newFaultTestbed(t, scrubCfg(plan, 1, 2), 0)
	for i := 0; i < 500; i++ {
		if dead, _ := tb.rt.Dead("rt_1"); dead {
			break
		}
		stormFor(t, tb, "rt_1", 20*time.Microsecond)
	}

	dead, err := tb.rt.Dead("rt_1")
	if err != nil || !dead {
		t.Fatalf("tile not declared dead: dead=%v err=%v", dead, err)
	}
	st := tb.rt.Stats()
	// Each detection's repair exhausts its retry and fails; the second
	// failure crosses TileDeadThreshold=2.
	if st.Scrub.Detected != 2 || st.Scrub.Uncorrectable != 2 || st.Scrub.Repaired != 0 {
		t.Fatalf("scrub stats: %+v", st.Scrub)
	}
	if st.DeadTiles != 1 || st.FailedReconfigs != 2 {
		t.Fatalf("stats: %+v", st)
	}
	h, _ := tb.rt.ConfigHealth("rt_1")
	if !h.Corrupted {
		t.Fatalf("dead tile should still show its corruption: %+v", h)
	}
	assertTileClean(t, tb)

	// Graceful degradation holds: the kernel runs on the processor and
	// computes the right answer.
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
}

// TestScrubPowerRailsRestored: after a storm of upsets and repairs the
// power books balance — no residual PRC power, the tile back at its
// configured idle draw, energy strictly accumulated.
func TestScrubPowerRailsRestored(t *testing.T) {
	plan := &faultinject.Plan{Seed: 7, Rules: []faultinject.Rule{
		{Op: faultinject.OpSEU, Site: "rt_1", Rate: 0.3},
	}}
	tb := newFaultTestbed(t, scrubCfg(plan, 1, 0), 0)
	idleBefore := tb.rt.Meter().Power("tile.rt_1")
	if idleBefore <= 0 {
		t.Fatalf("boot idle power: %g W", idleBefore)
	}
	stormFor(t, tb, "rt_1", 2*time.Millisecond)
	st := tb.rt.Stats().Scrub
	if st.Repaired == 0 {
		t.Fatalf("storm produced no repairs: %+v", st)
	}
	if w := tb.rt.Meter().Power("prc"); w != 0 {
		t.Fatalf("residual PRC power after scrubbing: %g W", w)
	}
	if w := tb.rt.Meter().Power("tile.rt_1"); w != idleBefore {
		t.Fatalf("tile idle power not restored: %g W, want %g W", w, idleBefore)
	}
	if tb.rt.Meter().TotalEnergy() <= 0 {
		t.Fatal("no energy accumulated")
	}
	assertTileClean(t, tb)
}

// scrubStormSignature renders every observable of a seeded SEU storm —
// scrub stats, per-tile post-repair CRCs, energy, injected fault
// count, Repair-flagged timeline — into one string. The acceptance
// property: this signature is byte-identical whatever worker count
// generated the bitstreams.
func scrubStormSignature(t *testing.T, workers int) string {
	t.Helper()
	plan := &faultinject.Plan{Seed: 4242, Rules: []faultinject.Rule{
		{Op: faultinject.OpSEU, Site: "rt_1", Rate: 0.25},
		{Op: faultinject.OpSEU, Site: "rt_2", Rate: 0.25},
	}}
	tb := newScrubTestbed(t, scrubCfg(plan, 2, 0), workers)
	// Interleave demand swaps and invocations with the storm so the
	// signature also covers scrub-vs-reconfig arbitration and energy.
	for _, acc := range []string{"sort", "gemm", "fft"} {
		if err := reconfigureSync(tb, "rt_1", acc); err != nil {
			t.Fatal(err)
		}
	}
	tb.rt.InvokeOn("rt_2", "gemm", [][]float64{{1, 0, 0, 1}, {5, 6, 7, 8}}, func(_ *InvokeResult, err error) {
		if err != nil {
			t.Error(err)
		}
	})
	tb.drain()
	stormFor(t, tb, "rt_1", time.Millisecond)

	var b strings.Builder
	fmt.Fprintf(&b, "stats=%+v\n", tb.rt.Stats())
	fmt.Fprintf(&b, "energy=%x faults=%d now=%d\n",
		tb.rt.Meter().TotalEnergy(), tb.rt.FaultsInjected(), tb.rt.Engine().Now())
	for _, name := range tb.rt.Tiles() {
		h, err := tb.rt.ConfigHealth(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "health %s loaded=%s golden=%08x readback=%08x upsets=%d frames=%d corrupted=%v\n",
			name, h.Loaded, h.GoldenCRC, h.ReadbackCRC, h.UpsetBits, h.UpsetFrames, h.Corrupted)
	}
	for _, ev := range tb.rt.Timeline() {
		fmt.Fprintf(&b, "ev %d %d %s %s %d %d %v %v %q\n",
			ev.Start, ev.End, ev.Tile, ev.Accel, ev.Bytes, ev.Attempts, ev.Repair, ev.Failed, ev.Err)
	}
	return b.String()
}

// TestScrubStormDeterminism is the acceptance determinism suite:
// identical seed + fault plan + scrub interval yields byte-identical
// post-repair bitstream CRCs, identical scrub counters, identical
// energy and an identical repair timeline across flow worker counts
// (and across repeated runs at the same worker count).
func TestScrubStormDeterminism(t *testing.T) {
	base := scrubStormSignature(t, 1)
	for run, workers := range []int{1, 2, 8, 1} {
		if sig := scrubStormSignature(t, workers); sig != base {
			t.Fatalf("run %d (workers=%d) diverged:\n--- base\n%s--- got\n%s", run, workers, base, sig)
		}
	}
	if !strings.Contains(base, "Repaired") || strings.Contains(base, "faults=0 ") {
		t.Fatalf("storm signature suspiciously quiet:\n%s", base)
	}
	// The storm must actually have exercised the repair path.
	if strings.Contains(base, "Scrub:{Cycles:0") || !strings.Contains(base, "corrupted=false") {
		t.Fatalf("storm never scrubbed:\n%s", base)
	}
}

// TestScrubSoak is the chaos-smoke leg: a long SEU storm over a
// swap-heavy workload, asserting the acceptance property that while
// all upsets are repairable, not one invocation returns a wrong
// result and no tile dies. Runs under -race in `make chaos-smoke`.
func TestScrubSoak(t *testing.T) {
	plan := &faultinject.Plan{Seed: 99, Rules: []faultinject.Rule{
		{Op: faultinject.OpSEU, Site: "rt_1", Rate: 0.4},
	}}
	tb := newFaultTestbed(t, scrubCfg(plan, 2, 3), 0)

	checked := 0
	for i := 0; i < 120; i++ {
		switch i % 3 {
		case 0:
			tb.rt.InvokeOn("rt_1", "sort", [][]float64{{3, 1, 2}}, func(r *InvokeResult, err error) {
				if err != nil {
					t.Errorf("iteration %d: %v", checked, err)
					return
				}
				if r.Out[0][0] != 1 || r.Out[0][1] != 2 || r.Out[0][2] != 3 {
					t.Errorf("iteration %d: wrong sort result %v", checked, r.Out[0])
				}
				checked++
			})
		case 1:
			tb.rt.InvokeOn("rt_1", "gemm", [][]float64{{1, 0, 0, 1}, {5, 6, 7, 8}}, func(r *InvokeResult, err error) {
				if err != nil {
					t.Errorf("iteration %d: %v", checked, err)
					return
				}
				if r.Out[0][0] != 5 || r.Out[0][3] != 8 {
					t.Errorf("iteration %d: wrong gemm result %v", checked, r.Out[0])
				}
				checked++
			})
		default:
			tb.rt.InvokeOn("rt_1", "fft", [][]float64{{1, 0, 0, 0}}, func(r *InvokeResult, err error) {
				if err != nil {
					t.Errorf("iteration %d: %v", checked, err)
					return
				}
				checked++
			})
		}
		tb.drain()
	}
	if checked != 120 {
		t.Fatalf("only %d/120 invocations completed", checked)
	}
	st := tb.rt.Stats()
	if st.DeadTiles != 0 {
		t.Fatalf("repairable storm killed a tile: %+v", st)
	}
	if st.Scrub.Upsets == 0 || st.Scrub.Repaired == 0 {
		t.Fatalf("soak too quiet to prove anything: %+v", st.Scrub)
	}
	if st.Scrub.Uncorrectable != 0 {
		t.Fatalf("repairable upsets reported uncorrectable: %+v", st.Scrub)
	}
	if st.CPUFallbacks != 0 {
		t.Fatalf("healthy tile fell back to CPU: %+v", st)
	}
	h, _ := tb.rt.ConfigHealth("rt_1")
	if h.RepairPending {
		t.Fatalf("repair left pending after drain: %+v", h)
	}
	assertTileClean(t, tb)
}

// TestScrubIdleEngineStillDrains pins the park/unpark contract: with
// scrubbing armed, Engine.Run(0) must still return once application
// work is done — a free-running scrub ticker would hang every drain
// in the codebase. And while the engine is parked, virtual time does
// not advance, so no SEU schedule is missed, only deferred.
func TestScrubIdleEngineStillDrains(t *testing.T) {
	plan := &faultinject.Plan{Seed: 5, Rules: []faultinject.Rule{
		{Op: faultinject.OpSEU, Site: "rt_1", Rate: 0.5},
	}}
	tb := newFaultTestbed(t, scrubCfg(plan, 1, 0), 0)

	// drain() on an idle runtime returns immediately (nothing pending).
	tb.drain()
	if tb.eng.Pending() != 0 {
		t.Fatalf("idle runtime holds %d pending events", tb.eng.Pending())
	}

	// A real workload unparks the chain; the drain still terminates,
	// and afterwards the queue is empty again (the chain re-parked).
	if err := reconfigureSync(tb, "rt_1", "gemm"); err != nil {
		t.Fatal(err)
	}
	if tb.eng.Pending() != 0 {
		t.Fatalf("health chain left %d events after drain", tb.eng.Pending())
	}
	now := tb.eng.Now()
	tb.drain()
	if tb.eng.Now() != now {
		t.Fatal("drain of parked runtime advanced virtual time")
	}
}
