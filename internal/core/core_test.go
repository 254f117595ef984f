package core

import (
	"testing"
	"testing/quick"

	"presp/internal/accel"
	"presp/internal/socgen"
)

func design(t *testing.T, cfg *socgen.Config) *socgen.Design {
	t.Helper()
	d, err := socgen.Elaborate(cfg, accel.Default())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMetricsMatchPaper checks Eq. (1) against the Table III values for
// the characterization SoCs.
func TestMetricsMatchPaper(t *testing.T) {
	cases := []struct {
		cfg     *socgen.Config
		alphaAv float64
		kappa   float64
		gamma   float64
	}{
		{socgen.SOC1(), 0.008, 0.271, 0.48},
		{socgen.SOC2(), 0.100, 0.271, 1.48},
		{socgen.SOC3(), 0.096, 0.271, 1.07},
		{socgen.SOC4(), 0.107, 0.129, 4.15},
	}
	for _, c := range cases {
		m, err := ComputeMetrics(design(t, c.cfg))
		if err != nil {
			t.Fatalf("%s: %v", c.cfg.Name, err)
		}
		approx := func(got, want, tol float64) bool { return got-want <= tol && want-got <= tol }
		if !approx(m.AlphaAv, c.alphaAv, 0.002) {
			t.Errorf("%s α_av: got %.4f want %.4f", c.cfg.Name, m.AlphaAv, c.alphaAv)
		}
		if !approx(m.Kappa, c.kappa, 0.005) {
			t.Errorf("%s κ: got %.4f want %.4f", c.cfg.Name, m.Kappa, c.kappa)
		}
		if !approx(m.Gamma, c.gamma, 0.02) {
			t.Errorf("%s γ: got %.4f want %.4f", c.cfg.Name, m.Gamma, c.gamma)
		}
	}
}

// TestClassification places the characterization SoCs in the paper's
// classes: SOC_1 -> 1.1, SOC_2 -> 1.2, SOC_3 -> 1.3, SOC_4 -> 2.1.
func TestClassification(t *testing.T) {
	cases := []struct {
		cfg  *socgen.Config
		want Class
	}{
		{socgen.SOC1(), Class11},
		{socgen.SOC2(), Class12},
		{socgen.SOC3(), Class13},
		{socgen.SOC4(), Class21},
	}
	for _, c := range cases {
		m, err := ComputeMetrics(design(t, c.cfg))
		if err != nil {
			t.Fatal(err)
		}
		cls, err := Classify(m)
		if err != nil {
			t.Fatalf("%s: %v", c.cfg.Name, err)
		}
		if cls != c.want {
			t.Errorf("%s: class %s, want %s", c.cfg.Name, cls, c.want)
		}
	}
}

func TestClassifySingleTile(t *testing.T) {
	m := Metrics{N: 1, StaticLUTs: 30000, ReconfLUTs: 31000, MaxTileLUTs: 31000, DeviceLUTs: 300000, Gamma: 1.03}
	cls, err := Classify(m)
	if err != nil {
		t.Fatal(err)
	}
	if cls != Class22 {
		t.Fatalf("single-tile design: class %s, want 2.2", cls)
	}
}

func TestClassifyGammaBoundaries(t *testing.T) {
	base := Metrics{N: 4, StaticLUTs: 90000, MaxTileLUTs: 30000, DeviceLUTs: 300000}
	cases := []struct {
		gamma float64
		want  Class
	}{
		{0.5, Class11},
		{0.84, Class11}, // just below the ≈1 band
		{0.86, Class13}, // inside the band
		{1.0, Class13},
		{1.14, Class13},
		{1.16, Class12}, // just above the band
		{2.0, Class12},
	}
	for _, c := range cases {
		m := base
		m.Gamma = c.gamma
		m.ReconfLUTs = int(c.gamma * float64(m.StaticLUTs))
		cls, err := Classify(m)
		if err != nil {
			t.Fatalf("γ=%.2f: %v", c.gamma, err)
		}
		if cls != c.want {
			t.Errorf("γ=%.2f: class %s, want %s", c.gamma, cls, c.want)
		}
	}
}

func TestClassifyImpossibleCondition(t *testing.T) {
	// A tile at least the static size with γ <= 1 is the impossible
	// condition the paper notes.
	m := Metrics{N: 3, StaticLUTs: 30000, ReconfLUTs: 25000, MaxTileLUTs: 31000, DeviceLUTs: 300000, Gamma: 0.83}
	if _, err := Classify(m); err == nil {
		t.Fatal("impossible metrics accepted")
	}
	if _, err := Classify(Metrics{}); err == nil {
		t.Fatal("empty metrics accepted")
	}
}

// TestChooseFollowsTableI verifies the full decision path on the
// characterization SoCs (Table I: 1.1 serial, 1.2 fully-parallel, 1.3
// semi-parallel, 2.1 fully-parallel).
func TestChooseFollowsTableI(t *testing.T) {
	cases := []struct {
		cfg  *socgen.Config
		want StrategyKind
		tau  int
	}{
		{socgen.SOC1(), Serial, 1},
		{socgen.SOC2(), FullyParallel, 4},
		{socgen.SOC3(), SemiParallel, 2},
		{socgen.SOC4(), FullyParallel, 5},
	}
	for _, c := range cases {
		s, err := Choose(design(t, c.cfg))
		if err != nil {
			t.Fatalf("%s: %v", c.cfg.Name, err)
		}
		if s.Kind != c.want || s.Tau != c.tau {
			t.Errorf("%s: chose %s τ=%d, want %s τ=%d", c.cfg.Name, s.Kind, s.Tau, c.want, c.tau)
		}
		if s.Kind != Serial && len(s.Groups) != s.Tau {
			t.Errorf("%s: %d groups for τ=%d", c.cfg.Name, len(s.Groups), s.Tau)
		}
	}
}

func TestForceStrategyValidation(t *testing.T) {
	d := design(t, socgen.SOC2())
	if _, err := ForceStrategy(d, SemiParallel, 1); err == nil {
		t.Fatal("semi-parallel τ=1 accepted")
	}
	if _, err := ForceStrategy(d, SemiParallel, 4); err == nil {
		t.Fatal("semi-parallel τ=N accepted")
	}
	s, err := ForceStrategy(d, SemiParallel, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tau != 3 || len(s.Groups) != 3 {
		t.Fatalf("forced semi τ=3: got τ=%d groups=%d", s.Tau, len(s.Groups))
	}
	full, err := ForceStrategy(d, FullyParallel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Tau != 4 {
		t.Fatalf("fully-parallel τ: got %d want 4", full.Tau)
	}
	serial, err := ForceStrategy(d, Serial, 0)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Tau != 1 || len(serial.Groups) != 0 {
		t.Fatal("serial strategy should have no groups")
	}
}

// TestGroupRPsPartition: every partition appears in exactly one group.
func TestGroupRPsPartition(t *testing.T) {
	d := design(t, socgen.SOC1())
	for tau := 1; tau <= 16; tau++ {
		groups := GroupRPs(d, tau)
		seen := make(map[string]int)
		for _, g := range groups {
			for _, name := range g {
				seen[name]++
			}
		}
		if len(seen) != 16 {
			t.Fatalf("τ=%d: %d partitions grouped, want 16", tau, len(seen))
		}
		for name, n := range seen {
			if n != 1 {
				t.Fatalf("τ=%d: %s appears %d times", tau, name, n)
			}
		}
	}
}

// TestGroupRPsBalance: LPT packing keeps the heaviest group within 2x
// of the average (the classical LPT bound is 4/3 OPT; 2x is a loose
// sanity check that still catches naive packing).
func TestGroupRPsBalance(t *testing.T) {
	d := design(t, socgen.SOC2())
	groups := GroupRPs(d, 2)
	var loads []int
	total := 0
	for _, g := range groups {
		l, err := GroupLUTs(d, g)
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, l)
		total += l
	}
	avg := total / len(groups)
	for i, l := range loads {
		if l > 2*avg {
			t.Fatalf("group %d load %d exceeds 2x average %d", i, l, avg)
		}
	}
}

// TestLPTBeatsRoundRobinOnSkewedSizes: the ablation baseline must be
// measurably worse on size-skewed designs.
func TestLPTBeatsRoundRobinOnSkewedSizes(t *testing.T) {
	d := design(t, socgen.SOC4()) // CPU 41.5k + accelerators 20-37k
	maxLoad := func(groups [][]string) int {
		max := 0
		for _, g := range groups {
			l, err := GroupLUTs(d, g)
			if err != nil {
				t.Fatal(err)
			}
			if l > max {
				max = l
			}
		}
		return max
	}
	lpt := maxLoad(GroupRPs(d, 2))
	rr := maxLoad(GroupRPsRoundRobin(d, 2))
	if lpt > rr {
		t.Fatalf("LPT (%d) worse than round-robin (%d)", lpt, rr)
	}
}

func TestGroupRPsProperty(t *testing.T) {
	d := design(t, socgen.SOC1())
	f := func(tauByte uint8) bool {
		tau := 1 + int(tauByte)%16
		groups := GroupRPs(d, tau)
		if len(groups) != tau {
			return false
		}
		count := 0
		for _, g := range groups {
			count += len(g)
		}
		return count == 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGroupLUTsUnknownName(t *testing.T) {
	d := design(t, socgen.SOC2())
	if _, err := GroupLUTs(d, []string{"ghost_rp"}); err == nil {
		t.Fatal("unknown partition accepted")
	}
}

func TestStrategyKindStrings(t *testing.T) {
	if Serial.String() != "serial" || SemiParallel.String() != "semi-parallel" || FullyParallel.String() != "fully-parallel" {
		t.Fatal("strategy names wrong")
	}
	for _, c := range []Class{Class11, Class12, Class13, Class21, Class22} {
		if c.String() == "" {
			t.Fatal("unnamed class")
		}
	}
}
