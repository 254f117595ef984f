// Package core implements the primary contribution of the PR-ESP paper:
// the size-driven P&R parallelism technique. It computes the size
// metrics κ, α_av and γ of Eq. (1), classifies a DPR design into the
// five-class taxonomy of Section IV, and chooses among the serial,
// semi-parallel and fully-parallel implementation strategies per the
// decision matrix of Table I. It also performs the semi-parallel
// grouping, packing reconfigurable partitions into balanced P&R runs.
package core

import (
	"fmt"
	"sort"

	"presp/internal/fpga"
	"presp/internal/socgen"
)

// Metrics holds the three size metrics of Eq. (1), all derived from
// post-synthesis LUT utilization.
type Metrics struct {
	// Kappa is lut_static / LUT_tot: the static part as a fraction of
	// the device.
	Kappa float64
	// AlphaAv is Σ lut_i / (N · LUT_tot): the average reconfigurable
	// tile as a fraction of the device.
	AlphaAv float64
	// Gamma is Σ lut_i / lut_static: total reconfigurable over static.
	Gamma float64
	// N is the reconfigurable tile count.
	N int
	// StaticLUTs and ReconfLUTs carry the raw numerators.
	StaticLUTs int
	ReconfLUTs int
	// MaxTileLUTs is the largest single reconfigurable tile.
	MaxTileLUTs int
	// DeviceLUTs is LUT_tot.
	DeviceLUTs int
}

// ComputeMetrics derives the Eq. (1) metrics from an elaborated design.
func ComputeMetrics(d *socgen.Design) (Metrics, error) {
	tot := d.Dev.Total[fpga.LUT]
	if tot <= 0 {
		return Metrics{}, fmt.Errorf("core: device %s reports no LUTs", d.Dev.Name)
	}
	m := Metrics{
		N:          len(d.RPs),
		StaticLUTs: d.StaticResources[fpga.LUT],
		DeviceLUTs: tot,
	}
	for _, rp := range d.RPs {
		l := rp.Resources[fpga.LUT]
		m.ReconfLUTs += l
		if l > m.MaxTileLUTs {
			m.MaxTileLUTs = l
		}
	}
	if m.N == 0 {
		return Metrics{}, fmt.Errorf("core: design %s has no reconfigurable tiles", d.Cfg.Name)
	}
	if m.StaticLUTs <= 0 {
		return Metrics{}, fmt.Errorf("core: design %s has an empty static part", d.Cfg.Name)
	}
	m.Kappa = float64(m.StaticLUTs) / float64(tot)
	m.AlphaAv = float64(m.ReconfLUTs) / (float64(m.N) * float64(tot))
	m.Gamma = float64(m.ReconfLUTs) / float64(m.StaticLUTs)
	return m, nil
}

// Class is the five-class size taxonomy of Section IV.
type Class int

const (
	// Class11: κ ≫ α_av and γ < 1 — the static part dominates every
	// reconfigurable tile and their sum.
	Class11 Class = iota
	// Class12: κ ≫ α_av and γ > 1 — large static part exceeded by the
	// combined reconfigurable tiles.
	Class12
	// Class13: κ ≫ α_av and γ ≈ 1.
	Class13
	// Class21: κ ≲ α_av (some reconfigurable tile rivals or exceeds the
	// static part) and γ > 1.
	Class21
	// Class22: a single reconfigurable tile with γ ≈ 1 — only a serial
	// implementation is meaningful.
	Class22
)

// String names the class with the paper's numbering.
func (c Class) String() string {
	switch c {
	case Class11:
		return "1.1"
	case Class12:
		return "1.2"
	case Class13:
		return "1.3"
	case Class21:
		return "2.1"
	case Class22:
		return "2.2"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// gammaTolerance is the band around γ = 1 treated as "γ ≈ 1". It places
// the paper's designs correctly: SoC_C (γ=0.97) and SOC_3 (γ=1.07) are
// ≈1, SoC_A (γ=1.26) and SOC_2 (γ=1.47) are >1, SoC_B (γ=0.6) is <1.
const gammaTolerance = 0.15

// Classify maps the metrics into the taxonomy. Group 2 membership (κ not
// ≫ α_av) is detected through its defining property: some reconfigurable
// tile is at least as large as the static region (Class 2.1), or the
// design has a single reconfigurable tile (Class 2.2).
func Classify(m Metrics) (Class, error) {
	if m.N <= 0 {
		return 0, fmt.Errorf("core: cannot classify a design with no reconfigurable tiles")
	}
	if m.N == 1 {
		return Class22, nil
	}
	if m.MaxTileLUTs >= m.StaticLUTs {
		if m.Gamma <= 1 {
			// The text proves this combination impossible: if one tile
			// exceeds the static region, the sum does too.
			return 0, fmt.Errorf("core: inconsistent metrics: max tile %d >= static %d but γ=%.2f <= 1",
				m.MaxTileLUTs, m.StaticLUTs, m.Gamma)
		}
		return Class21, nil
	}
	switch {
	case m.Gamma < 1-gammaTolerance:
		return Class11, nil
	case m.Gamma > 1+gammaTolerance:
		return Class12, nil
	default:
		return Class13, nil
	}
}

// StrategyKind enumerates the three P&R implementation strategies.
type StrategyKind int

const (
	// Serial: τ = 1, a single Vivado instance implements the whole
	// design, reconfigurable modules included.
	Serial StrategyKind = iota
	// SemiParallel: reconfigurable tiles are grouped into τ < N runs,
	// each implemented in-context with the pre-routed static part.
	SemiParallel
	// FullyParallel: τ = N, every reconfigurable tile gets its own run
	// after the static-only pre-route.
	FullyParallel
)

// String names the strategy with the paper's terminology.
func (s StrategyKind) String() string {
	switch s {
	case Serial:
		return "serial"
	case SemiParallel:
		return "semi-parallel"
	case FullyParallel:
		return "fully-parallel"
	default:
		return fmt.Sprintf("StrategyKind(%d)", int(s))
	}
}

// ParseStrategyKind reads a strategy name as the CLIs and the job API
// take it: "serial", "semi" or "semi-parallel", "fully" or
// "fully-parallel".
func ParseStrategyKind(s string) (StrategyKind, error) {
	switch s {
	case "serial":
		return Serial, nil
	case "semi", "semi-parallel":
		return SemiParallel, nil
	case "fully", "fully-parallel":
		return FullyParallel, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (want serial, semi or fully)", s)
	}
}

// Strategy is a concrete implementation plan: the kind, the parallelism
// degree τ and the partition of RP names into P&R runs.
type Strategy struct {
	Kind StrategyKind
	// Tau is the number of parallel P&R runs (1 for serial, N for fully
	// parallel).
	Tau int
	// Groups assigns RP names to runs; len(Groups) == Tau except for
	// serial, where Groups is empty (the whole design is one run).
	Groups [][]string
	// Class records the taxonomy class that drove the choice.
	Class Class
	// Metrics records the inputs to the decision.
	Metrics Metrics
}

// DefaultSemiTau is the semi-parallel degree used throughout the paper's
// evaluation ("for all the semi-parallel implementations we set τ = 2").
const DefaultSemiTau = 2

// Choose applies the Table I decision matrix: it computes metrics,
// classifies the design and returns the strategy PR-ESP selects.
//
//	class 1.1 -> serial
//	class 1.2 -> fully-parallel (of the semi/fully pair, the evaluation
//	             shows fully-parallel wins for these designs)
//	class 1.3 -> semi-parallel with τ = DefaultSemiTau
//	class 2.1 -> fully-parallel
//	class 2.2 -> serial
func Choose(d *socgen.Design) (*Strategy, error) {
	m, err := ComputeMetrics(d)
	if err != nil {
		return nil, err
	}
	cls, err := Classify(m)
	if err != nil {
		return nil, err
	}
	s := &Strategy{Class: cls, Metrics: m}
	switch cls {
	case Class11, Class22:
		s.Kind = Serial
		s.Tau = 1
	case Class13:
		s.Kind = SemiParallel
		s.Tau = DefaultSemiTau
		if s.Tau >= m.N {
			// Semi-parallel at τ = N is fully parallel; report it as such
			// so the strategy stays internally consistent.
			s.Kind = FullyParallel
			s.Tau = m.N
		}
		s.Groups = GroupRPs(d, s.Tau)
	case Class12, Class21:
		s.Kind = FullyParallel
		s.Tau = m.N
		s.Groups = GroupRPs(d, s.Tau)
	}
	return s, nil
}

// ForceStrategy builds a Strategy of the requested kind regardless of the
// classification — used by the evaluation to sweep all strategies and by
// the ablation benches.
func ForceStrategy(d *socgen.Design, kind StrategyKind, tau int) (*Strategy, error) {
	m, err := ComputeMetrics(d)
	if err != nil {
		return nil, err
	}
	cls, err := Classify(m)
	if err != nil {
		return nil, err
	}
	s := &Strategy{Kind: kind, Class: cls, Metrics: m}
	switch kind {
	case Serial:
		s.Tau = 1
	case FullyParallel:
		s.Tau = m.N
		s.Groups = GroupRPs(d, s.Tau)
	case SemiParallel:
		if tau <= 1 || tau >= m.N {
			return nil, fmt.Errorf("core: semi-parallel τ=%d must satisfy 1 < τ < N=%d", tau, m.N)
		}
		s.Tau = tau
		s.Groups = GroupRPs(d, tau)
	default:
		return nil, fmt.Errorf("core: unknown strategy kind %d", int(kind))
	}
	return s, nil
}

// ChooseWithTau is Choose with a caller-set semi-parallel degree: when
// the matrix selects semi-parallel and tau is not 0 (the default), the
// strategy is forced to tau, and an out-of-range tau gets the same error
// as a forced semi strategy. The other classes do not read tau.
func ChooseWithTau(d *socgen.Design, tau int) (*Strategy, error) {
	s, err := Choose(d)
	if err != nil || s.Kind != SemiParallel || tau == 0 {
		return s, err
	}
	return ForceStrategy(d, SemiParallel, tau)
}

// GroupRPs partitions the design's reconfigurable partitions into tau
// groups using longest-processing-time bin packing on LUT size, so the
// parallel runs are load-balanced (the slowest run bounds T_tot).
func GroupRPs(d *socgen.Design, tau int) [][]string {
	if tau <= 0 {
		return nil
	}
	type item struct {
		name string
		luts int
	}
	items := make([]item, 0, len(d.RPs))
	for _, rp := range d.RPs {
		items = append(items, item{name: rp.Name, luts: rp.Resources[fpga.LUT]})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].luts != items[j].luts {
			return items[i].luts > items[j].luts
		}
		return items[i].name < items[j].name
	})
	if tau > len(items) {
		tau = len(items)
	}
	groups := make([][]string, tau)
	loads := make([]int, tau)
	for _, it := range items {
		// Place on the least-loaded group.
		best := 0
		for g := 1; g < tau; g++ {
			if loads[g] < loads[best] {
				best = g
			}
		}
		groups[best] = append(groups[best], it.name)
		loads[best] += it.luts
	}
	return groups
}

// GroupRPsRoundRobin is the naive grouping used as an ablation baseline:
// RPs are dealt to groups in name order with no load balancing.
func GroupRPsRoundRobin(d *socgen.Design, tau int) [][]string {
	if tau <= 0 {
		return nil
	}
	if tau > len(d.RPs) {
		tau = len(d.RPs)
	}
	groups := make([][]string, tau)
	for i, rp := range d.RPs {
		groups[i%tau] = append(groups[i%tau], rp.Name)
	}
	return groups
}

// GroupLUTs returns the total LUTs of the named RPs in design d.
func GroupLUTs(d *socgen.Design, names []string) (int, error) {
	byName := make(map[string]int, len(d.RPs))
	for _, rp := range d.RPs {
		byName[rp.Name] = rp.Resources[fpga.LUT]
	}
	sum := 0
	for _, n := range names {
		l, ok := byName[n]
		if !ok {
			return 0, fmt.Errorf("core: design %s has no RP named %q", d.Cfg.Name, n)
		}
		sum += l
	}
	return sum, nil
}
