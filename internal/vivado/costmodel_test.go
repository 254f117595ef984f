package vivado

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultCostModelValid(t *testing.T) {
	if err := DefaultCostModel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []func(*CostModel){
		func(m *CostModel) { m.SynthPerK = 0 },
		func(m *CostModel) { m.PRExp = -1 },
		func(m *CostModel) { m.HostCores = 0 },
		func(m *CostModel) { m.PblockSlack = 0.9 },
	}
	for i, mutate := range cases {
		m := DefaultCostModel()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted", i)
		}
	}
}

func TestSynthTimeMonotonic(t *testing.T) {
	m := DefaultCostModel()
	prev := m.SynthTime(0, false)
	for _, k := range []float64{10, 50, 100, 200} {
		cur := m.SynthTime(k, false)
		if cur <= prev {
			t.Fatalf("synth time not monotone at %g kLUT", k)
		}
		prev = cur
	}
}

func TestSerialImplMonotonic(t *testing.T) {
	m := DefaultCostModel()
	if m.SerialImplTime(200, 4, 0.5) <= m.SerialImplTime(100, 4, 0.5) {
		t.Fatal("serial time not monotone in size")
	}
	if m.SerialImplTime(100, 4, 0.8) <= m.SerialImplTime(100, 4, 0.1) {
		t.Fatal("serial time not monotone in reserved fraction")
	}
	if m.SerialImplTime(100, 8, 0.5) <= m.SerialImplTime(100, 2, 0.5) {
		t.Fatal("serial time not monotone in partition count")
	}
}

func TestStaticPreRouteCongestion(t *testing.T) {
	m := DefaultCostModel()
	low := m.StaticPreRouteTime(82, 0.2, 4)
	high := m.StaticPreRouteTime(82, 0.7, 4)
	if high <= low {
		t.Fatal("reserved-area congestion not charged")
	}
}

func TestInContextMonotonic(t *testing.T) {
	m := DefaultCostModel()
	if m.InContextImplTime(60, 82, 120) <= m.InContextImplTime(30, 82, 120) {
		t.Fatal("in-context time not monotone in group size")
	}
	if m.InContextImplTime(30, 82, 160) <= m.InContextImplTime(30, 82, 40) {
		t.Fatal("checkpoint-load cost not monotone in reconfigurable content")
	}
}

func TestContention(t *testing.T) {
	m := DefaultCostModel()
	// Up to HostCores/VivadoCores instances run at full speed.
	if m.Contention(1) != 1.0 || m.Contention(4) != 1.0 {
		t.Fatal("under-capacity contention should be 1.0")
	}
	if m.Contention(8) <= 1.0 {
		t.Fatal("over-capacity contention should slow instances")
	}
	if m.Contention(16) <= m.Contention(8) {
		t.Fatal("contention not monotone")
	}
	// Concurrent runs end with the longest, slowed by the contention of
	// all n instances.
	if got, want := m.ConcurrentWall(8, 3, 7, 5), Minutes(7*m.Contention(8)); got != want {
		t.Fatalf("ConcurrentWall(8, 3, 7, 5) = %v, want %v", float64(got), float64(want))
	}
	if m.ConcurrentWall(8) != 0 || m.ConcurrentWall(2, 6) != 6 {
		t.Fatal("ConcurrentWall: no runs take no time, and under capacity a run keeps its time")
	}
}

func TestClamp01Property(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		c := clamp01(v)
		return c >= 0 && c <= 1 && (v < 0 || v > 1 || c == v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestParallelFormulaStructure checks the decomposition the paper's
// model is built on: T_full = t_static + max{Ω_i}, with every Ω made of
// base + load + place/route terms.
func TestParallelFormulaStructure(t *testing.T) {
	m := DefaultCostModel()
	staticK, reconfK := 82.0, 120.0
	tStatic := float64(m.StaticPreRouteTime(staticK, 0.5, 4))
	omega := float64(m.InContextImplTime(36, staticK, reconfK))
	total := tStatic + omega
	if total <= tStatic || total <= omega {
		t.Fatal("total must exceed both components")
	}
	// The in-context run must be much cheaper than a full serial
	// implementation of the same design — that is the entire point of
	// the parallel strategies.
	serial := float64(m.SerialImplTime(staticK+reconfK, 4, 0.5))
	if omega >= serial {
		t.Fatalf("in-context run (%.0f) not cheaper than full serial (%.0f)", omega, serial)
	}
}

// TestCalibratedShapeHolds verifies on raw model arithmetic the three
// headline behaviours the calibration enforces (the full-design check
// happens in the experiments package):
//
//  1. for a design with a dominant static part and small modules
//     (class 1.1), serial beats pre-route + in-context;
//  2. for a large reconfigurable total (class 1.2/2.1), the parallel
//     path wins;
//  3. bigger groups mean longer in-context runs (so more parallelism
//     helps when it shrinks groups).
func TestCalibratedShapeHolds(t *testing.T) {
	m := DefaultCostModel()

	// Class 1.1 shape: static 82k, 16 modules of 2.45k. Fully parallel
	// needs 16 simultaneous instances, so host contention applies.
	serial11 := float64(m.SerialImplTime(82+39, 16, 0.29))
	par11 := float64(m.StaticPreRouteTime(82, 0.29, 16)) +
		float64(m.InContextImplTime(2.45, 82, 39))*m.Contention(16)
	if serial11 >= par11 {
		t.Fatalf("class 1.1: serial (%.0f) should beat parallel (%.0f)", serial11, par11)
	}

	// Class 1.2 shape: static 82k, 4 modules totalling 121k.
	serial12 := float64(m.SerialImplTime(82+121, 4, 0.64))
	par12 := float64(m.StaticPreRouteTime(82, 0.64, 4)) + float64(m.InContextImplTime(36.7, 82, 121))
	if par12 >= serial12 {
		t.Fatalf("class 1.2: parallel (%.0f) should beat serial (%.0f)", par12, serial12)
	}

	// Group-size monotonicity.
	if m.InContextImplTime(64, 82, 121) <= m.InContextImplTime(36, 82, 121) {
		t.Fatal("larger groups must take longer")
	}
}

func TestBitgenTime(t *testing.T) {
	m := DefaultCostModel()
	if m.BitgenTime(300) <= m.BitgenTime(20) {
		t.Fatal("bitgen time not monotone")
	}
}

func TestMinutesString(t *testing.T) {
	if Minutes(89.4).String() != "89 min" {
		t.Fatalf("got %q", Minutes(89.4).String())
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	m := DefaultCostModel()
	if m.JitterFrac != 0 {
		t.Fatal("default model must be deterministic")
	}
	base := m.SynthTime(80, false)
	m.JitterFrac = 0.05
	m.JitterSeed = 7
	a := m.SynthTime(80, false)
	b := m.SynthTime(80, false)
	if a != b {
		t.Fatal("same seed must give the same realization")
	}
	if ratio := float64(a) / float64(base); ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("jitter out of bounds: %g", ratio)
	}
	m.JitterSeed = 8
	if c := m.SynthTime(80, false); c == a {
		t.Fatal("different seeds should (almost surely) differ")
	}
	// Different stages jitter independently.
	s1 := float64(m.SerialImplTime(80, 2, 0.3)) / float64(DefaultCostModel().SerialImplTime(80, 2, 0.3))
	s2 := float64(m.InContextImplTime(30, 80, 100)) / float64(DefaultCostModel().InContextImplTime(30, 80, 100))
	if s1 == s2 {
		t.Fatal("stage jitters should be independent")
	}
}
