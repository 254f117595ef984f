package noc

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"presp/internal/sim"
)

func mesh(t *testing.T, cols, rows int) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine()
	n, err := New(eng, Config{Cols: cols, Rows: rows, FreqHz: 78e6})
	if err != nil {
		t.Fatal(err)
	}
	return eng, n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(sim.NewEngine(), Config{Cols: 0, Rows: 3}); err == nil {
		t.Fatal("zero-width mesh accepted")
	}
	if _, err := New(sim.NewEngine(), Config{Cols: 3, Rows: -1}); err == nil {
		t.Fatal("negative-height mesh accepted")
	}
}

func TestDefaults(t *testing.T) {
	n, err := New(sim.NewEngine(), Config{Cols: 2, Rows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n.cfg.FreqHz != 78e6 {
		t.Fatalf("default clock not applied: %+v", n.cfg)
	}
}

func TestRouteXYOrder(t *testing.T) {
	_, n := mesh(t, 4, 4)
	path, err := n.Route(Coord{X: 0, Y: 0}, Coord{X: 3, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	// XY routing travels X first, then Y.
	want := []Coord{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {3, 1}, {3, 2}}
	if len(path) != len(want) {
		t.Fatalf("path %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path %v, want %v", path, want)
		}
	}
}

func TestRouteLengthProperty(t *testing.T) {
	_, n := mesh(t, 6, 5)
	f := func(sx, sy, dx, dy uint8) bool {
		src := Coord{X: int(sx) % 6, Y: int(sy) % 5}
		dst := Coord{X: int(dx) % 6, Y: int(dy) % 5}
		path, err := n.Route(src, dst)
		if err != nil {
			return false
		}
		// XY routing is minimal: one hop per unit of Manhattan distance.
		hops := max(dst.X-src.X, src.X-dst.X) + max(dst.Y-src.Y, src.Y-dst.Y)
		return len(path) == hops+1 && path[0] == src && path[len(path)-1] == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouteOutsideMesh(t *testing.T) {
	_, n := mesh(t, 2, 2)
	if _, err := n.Route(Coord{X: 0, Y: 0}, Coord{X: 5, Y: 0}); err == nil {
		t.Fatal("route to outside coordinate accepted")
	}
	if _, err := n.Transfer(PlaneMemReq, Coord{X: -1, Y: 0}, Coord{X: 0, Y: 0}, 64); err == nil {
		t.Fatal("transfer from outside coordinate accepted")
	}
}

func TestTransferLatencyComponents(t *testing.T) {
	_, n := mesh(t, 3, 3)
	src, dst := Coord{X: 0, Y: 0}, Coord{X: 2, Y: 0}
	// 64 bytes = 8 flits + 1 head = 9 flits; 2 hops × 2 cycles + 9
	// cycles serialization = 13 cycles @ 78 MHz (per-cycle rounding, as
	// the link-reservation model composes durations).
	done, err := n.Transfer(PlaneMemReq, src, dst, 64)
	if err != nil {
		t.Fatal(err)
	}
	cycle := sim.Clock(1, 78e6)
	want := 2*2*cycle + 9*cycle
	if done != want {
		t.Fatalf("transfer latency: got %v want %v", done, want)
	}
}

func TestTransferContentionPushesBack(t *testing.T) {
	_, n := mesh(t, 3, 1)
	src, dst := Coord{X: 0, Y: 0}, Coord{X: 2, Y: 0}
	first, err := n.Transfer(PlaneMemReq, src, dst, 8000)
	if err != nil {
		t.Fatal(err)
	}
	second, err := n.Transfer(PlaneMemReq, src, dst, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if second <= first {
		t.Fatalf("contending transfer should finish later: %v then %v", first, second)
	}
	// A transfer on a different plane shares no links.
	other, err := n.Transfer(PlaneMemRsp, src, dst, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if other != first {
		t.Fatalf("different plane should be uncontended: got %v want %v", other, first)
	}
}

func TestDisjointPathsDoNotContend(t *testing.T) {
	_, n := mesh(t, 3, 3)
	a, err := n.Transfer(PlaneMemReq, Coord{X: 0, Y: 0}, Coord{X: 2, Y: 0}, 800)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Transfer(PlaneMemReq, Coord{X: 0, Y: 2}, Coord{X: 2, Y: 2}, 800)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("disjoint rows should not contend: %v vs %v", a, b)
	}
}

func TestTransferValidation(t *testing.T) {
	_, n := mesh(t, 2, 2)
	if _, err := n.Transfer(Plane(99), Coord{}, Coord{X: 1, Y: 0}, 8); err == nil {
		t.Fatal("invalid plane accepted")
	}
	if _, err := n.Transfer(PlaneMemReq, Coord{}, Coord{X: 1, Y: 0}, 0); err == nil {
		t.Fatal("zero-byte transfer accepted")
	}
}

func TestDecoupleGatesTransfers(t *testing.T) {
	_, n := mesh(t, 2, 2)
	target := Coord{X: 1, Y: 0}
	if err := n.Decouple(target); err != nil {
		t.Fatal(err)
	}
	if !n.Decoupled(target) {
		t.Fatal("decouple state not recorded")
	}
	_, err := n.Transfer(PlaneMemReq, Coord{}, target, 64)
	var gated *ErrDecoupled
	if !errors.As(err, &gated) {
		t.Fatalf("transfer to decoupled tile: got %v, want ErrDecoupled", err)
	}
	if gated.Tile != target {
		t.Fatalf("error names tile %v", gated.Tile)
	}
	if _, err := n.Transfer(PlaneMemReq, target, Coord{}, 64); err == nil {
		t.Fatal("transfer from decoupled tile accepted")
	}
	// Traffic that merely passes through the gated tile's router is NOT
	// blocked — only its local ports are.
	if _, err := n.Transfer(PlaneMemReq, Coord{X: 0, Y: 0}, Coord{X: 1, Y: 1}, 64); err != nil {
		t.Fatalf("pass-through traffic blocked: %v", err)
	}
	if err := n.Recouple(target); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Transfer(PlaneMemReq, Coord{}, target, 64); err != nil {
		t.Fatalf("transfer after recouple failed: %v", err)
	}
}

func TestDecoupleValidation(t *testing.T) {
	_, n := mesh(t, 2, 2)
	if err := n.Decouple(Coord{X: 9, Y: 9}); err == nil {
		t.Fatal("decouple outside mesh accepted")
	}
	if err := n.Recouple(Coord{X: 9, Y: 9}); err == nil {
		t.Fatal("recouple outside mesh accepted")
	}
}

func TestStats(t *testing.T) {
	_, n := mesh(t, 2, 2)
	if _, err := n.Transfer(PlaneMemReq, Coord{}, Coord{X: 1, Y: 0}, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Transfer(PlaneConfig, Coord{}, Coord{X: 1, Y: 1}, 8); err != nil {
		t.Fatal(err)
	}
	s := n.Stats()
	if s.Packets != 2 {
		t.Fatalf("packets: got %d", s.Packets)
	}
	if s.TotalFlits < 9+2 {
		t.Fatalf("flits too few: %d", s.TotalFlits)
	}
	if s.LinksUsed < 3 {
		t.Fatalf("links: got %d", s.LinksUsed)
	}
}

func TestLocalDeliveryPaysSerialization(t *testing.T) {
	eng, n := mesh(t, 2, 2)
	_ = eng
	done, err := n.Transfer(PlaneMemReq, Coord{}, Coord{}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("local transfer should still take serialization time")
	}
}

func TestTransferAdvancesWithEngineTime(t *testing.T) {
	eng, n := mesh(t, 2, 1)
	var second sim.Time
	first, err := n.Transfer(PlaneMemReq, Coord{}, Coord{X: 1, Y: 0}, 8000)
	if err != nil {
		t.Fatal(err)
	}
	// At a later virtual time, the link is free again: no push-back.
	if err := eng.At(first+time.Millisecond, func() {
		var terr error
		second, terr = n.Transfer(PlaneMemReq, Coord{}, Coord{X: 1, Y: 0}, 8000)
		if terr != nil {
			t.Error(terr)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run(0)
	if second <= first {
		t.Fatalf("second transfer should start after the first: %v vs %v", second, first)
	}
}

func TestPlaneNames(t *testing.T) {
	for p := Plane(0); p < NumPlanes; p++ {
		if p.String() == "" {
			t.Fatalf("plane %d unnamed", p)
		}
	}
}

func TestPlaneStats(t *testing.T) {
	_, n := mesh(t, 2, 2)
	if _, err := n.Transfer(PlaneMemReq, Coord{}, Coord{X: 1, Y: 0}, 640); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Transfer(PlaneDMA, Coord{}, Coord{X: 1, Y: 0}, 64); err != nil {
		t.Fatal(err)
	}
	req := n.PlaneStats(PlaneMemReq)
	dma := n.PlaneStats(PlaneDMA)
	idle := n.PlaneStats(PlaneCoherence)
	if req.TotalFlits <= dma.TotalFlits {
		t.Fatalf("mem-req (%d flits) should carry more than dma (%d)", req.TotalFlits, dma.TotalFlits)
	}
	if idle.TotalFlits != 0 || idle.LinksUsed != 0 {
		t.Fatal("unused plane shows traffic")
	}
	total := n.Stats()
	if total.TotalFlits != req.TotalFlits+dma.TotalFlits {
		t.Fatal("plane stats do not sum to the total")
	}
}

// hookFaults is a scripted FaultHook for tests: each field, when
// non-nil, is returned once and cleared.
type hookFaults struct {
	transfer, decouple, recouple error
	calls                        int
}

func (h *hookFaults) TransferFault(p Plane, src, dst Coord) error {
	h.calls++
	err := h.transfer
	h.transfer = nil
	return err
}
func (h *hookFaults) DecoupleFault(c Coord) error {
	h.calls++
	err := h.decouple
	h.decouple = nil
	return err
}
func (h *hookFaults) RecoupleFault(c Coord) error {
	h.calls++
	err := h.recouple
	h.recouple = nil
	return err
}

func TestFaultHookVetoesOperations(t *testing.T) {
	_, n := mesh(t, 2, 2)
	boom := errors.New("injected")
	h := &hookFaults{transfer: boom}
	n.SetFaultHook(h)

	if _, err := n.Transfer(PlaneDMA, Coord{0, 0}, Coord{1, 1}, 64); !errors.Is(err, boom) {
		t.Fatalf("transfer fault not delivered: %v", err)
	}
	if n.Stats().Packets != 0 || n.Stats().LinksUsed != 0 {
		t.Fatalf("faulted transfer mutated link state: %+v", n.Stats())
	}
	// The hook is consumed: the retry goes through.
	if _, err := n.Transfer(PlaneDMA, Coord{0, 0}, Coord{1, 1}, 64); err != nil {
		t.Fatalf("retry after transient fault: %v", err)
	}

	h.decouple = boom
	if err := n.Decouple(Coord{1, 1}); !errors.Is(err, boom) {
		t.Fatalf("decouple fault not delivered: %v", err)
	}
	if n.Decoupled(Coord{1, 1}) {
		t.Fatal("faulted decouple gated the tile")
	}
	if err := n.Decouple(Coord{1, 1}); err != nil {
		t.Fatal(err)
	}
	h.recouple = boom
	if err := n.Recouple(Coord{1, 1}); !errors.Is(err, boom) {
		t.Fatalf("recouple fault not delivered: %v", err)
	}
	if !n.Decoupled(Coord{1, 1}) {
		t.Fatal("faulted recouple un-gated the tile")
	}
	// Recovery path: ResetTile bypasses the stuck decoupler.
	h.recouple = boom
	if !n.ResetTile(Coord{1, 1}) {
		t.Fatal("ResetTile did not report resetting a gated tile")
	}
	if n.Decoupled(Coord{1, 1}) {
		t.Fatal("ResetTile did not clear the gate")
	}
	// Removing the hook restores normal operation.
	n.SetFaultHook(nil)
	if err := n.Decouple(Coord{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Recouple(Coord{1, 1}); err != nil {
		t.Fatal(err)
	}
}

// TestDecoupleTrioCoherence pins the decoupler trio's edge semantics:
// the decoupler is a level signal, so double-decouple and
// recouple-without-decouple are idempotent successes, while ResetTile
// validates its coord like the other two and reports whether it
// actually reset anything instead of silently clearing phantom state.
func TestDecoupleTrioCoherence(t *testing.T) {
	_, n := mesh(t, 2, 2)
	c := Coord{1, 0}

	// Double-decouple: asserting the level twice is the same state.
	if err := n.Decouple(c); err != nil {
		t.Fatal(err)
	}
	if err := n.Decouple(c); err != nil {
		t.Fatalf("double decouple: %v", err)
	}
	if !n.Decoupled(c) {
		t.Fatal("tile not gated after double decouple")
	}
	if err := n.Recouple(c); err != nil {
		t.Fatal(err)
	}

	// Recouple-without-decouple: de-asserting an already-low level.
	if err := n.Recouple(c); err != nil {
		t.Fatalf("recouple of never-decoupled tile: %v", err)
	}
	if n.Decoupled(c) {
		t.Fatal("recouple gated the tile")
	}

	// Out-of-mesh coords: all three validate the same way.
	out := Coord{5, 5}
	if err := n.Decouple(out); err == nil {
		t.Fatal("out-of-mesh decouple accepted")
	}
	if err := n.Recouple(out); err == nil {
		t.Fatal("out-of-mesh recouple accepted")
	}
	if n.ResetTile(out) {
		t.Fatal("out-of-mesh ResetTile claimed to reset a tile")
	}
	// Resetting an in-mesh tile that is not gated is a no-op, reported.
	if n.ResetTile(c) {
		t.Fatal("ResetTile claimed to reset an un-gated tile")
	}
	if err := n.Decouple(c); err != nil {
		t.Fatal(err)
	}
	if !n.ResetTile(c) {
		t.Fatal("ResetTile did not reset a gated tile")
	}
}

func TestFaultHookNotConsultedOnInvalidInput(t *testing.T) {
	_, n := mesh(t, 2, 2)
	h := &hookFaults{}
	n.SetFaultHook(h)
	if _, err := n.Transfer(PlaneDMA, Coord{0, 0}, Coord{5, 5}, 64); err == nil {
		t.Fatal("out-of-mesh transfer accepted")
	}
	if _, err := n.Transfer(PlaneDMA, Coord{0, 0}, Coord{1, 1}, 0); err == nil {
		t.Fatal("zero-byte transfer accepted")
	}
	// Gated-destination failures also precede injection.
	if err := n.Decouple(Coord{1, 1}); err != nil {
		t.Fatal(err)
	}
	before := h.calls
	if _, err := n.Transfer(PlaneDMA, Coord{0, 0}, Coord{1, 1}, 64); err == nil {
		t.Fatal("transfer to gated tile accepted")
	}
	if h.calls != before {
		t.Fatal("hook consulted for a transfer that fails validation")
	}
}
