package rtl

import (
	"strings"
	"testing"

	"presp/internal/fpga"
)

func leaf(name string, luts int) *Module {
	return &Module{Name: name, Cost: fpga.NewResources(luts, luts, 0, 0)}
}

func TestTotalCostRecursive(t *testing.T) {
	top := leaf("top", 100)
	a := leaf("a", 10)
	b := leaf("b", 20)
	a.AddChild("b0", b)
	top.AddChild("a0", a)
	if got := top.TotalCost()[fpga.LUT]; got != 130 {
		t.Fatalf("TotalCost: got %d want 130", got)
	}
}

func TestBlackBoxContributesNothing(t *testing.T) {
	top := leaf("top", 100)
	bb := leaf("hidden", 999)
	bb.BlackBox = true
	top.AddChild("bb0", bb)
	if got := top.TotalCost()[fpga.LUT]; got != 100 {
		t.Fatalf("black box leaked cost: got %d", got)
	}
}

func TestCloneAsBlackBox(t *testing.T) {
	m := leaf("acc", 500)
	m.AddPort("clk", In, 1, ClockPort)
	m.AddPort("data", Out, 64, DataPort)
	bb := m.CloneAsBlackBox()
	if !bb.BlackBox {
		t.Fatal("clone is not a black box")
	}
	if len(bb.Ports) != len(m.Ports) {
		t.Fatal("clone lost ports")
	}
	if !bb.TotalCost().IsZero() {
		t.Fatal("black box clone has cost")
	}
	if bb.Name == m.Name {
		t.Fatal("clone must be renamed to avoid module collisions")
	}
	// Mutating the clone's port list must not touch the original.
	bb.AddPort("extra", In, 1, DataPort)
	if len(m.Ports) != 2 {
		t.Fatal("clone aliases the original's ports")
	}
}

func TestClockRuleDetection(t *testing.T) {
	top := leaf("tile", 10)
	dvfs := leaf("dvfs", 5)
	dvfs.ClockModifying = true
	top.AddChild("dvfs0", dvfs)
	if !top.ContainsClockModifying() {
		t.Fatal("nested clock-modifying logic not detected")
	}
	clean := leaf("clean", 10)
	if clean.ContainsClockModifying() {
		t.Fatal("false positive clock detection")
	}
	clkOut := leaf("out", 5)
	clkOut.AddPort("clk_out", Out, 1, ClockOutPort)
	if !clkOut.DrivesClockOut() {
		t.Fatal("clock output not detected")
	}
	clkIn := leaf("in", 5)
	clkIn.AddPort("clk", In, 1, ClockPort)
	if clkIn.DrivesClockOut() {
		t.Fatal("clock input misdetected as output")
	}
}

func TestWalkVisitsAllWithPaths(t *testing.T) {
	top := leaf("top", 1)
	a := leaf("a", 1)
	b := leaf("b", 1)
	a.AddChild("b0", b)
	top.AddChild("a0", a)
	var paths []string
	top.Walk(func(path string, _ *Module) { paths = append(paths, path) })
	want := []string{"top", "top/a0", "top/a0/b0"}
	if len(paths) != len(want) {
		t.Fatalf("walk visited %v", paths)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("walk order: got %v want %v", paths, want)
		}
	}
}

func TestFind(t *testing.T) {
	top := leaf("top", 1)
	a := leaf("a", 1)
	top.AddChild("a0", a)
	if top.Find("a") != a {
		t.Fatal("Find missed a child")
	}
	if top.Find("nope") != nil {
		t.Fatal("Find invented a module")
	}
	if top.Find("top") != top {
		t.Fatal("Find should match the root")
	}
}

func TestPortStrings(t *testing.T) {
	if In.String() != "input" || Out.String() != "output" || InOut.String() != "inout" {
		t.Fatal("direction names wrong")
	}
	for _, c := range []PortClass{DataPort, ConfigPort, ClockPort, ClockOutPort, ResetPort, InterruptPort} {
		if strings.HasPrefix(c.String(), "PortClass(") {
			t.Fatalf("class %d unnamed", int(c))
		}
	}
}
