// Package vivado simulates the Xilinx CAD tool as the PR-ESP flow drives
// it: out-of-context and full synthesis, design rule checks for dynamic
// function exchange, serial and in-context place-and-route, checkpoints
// and (partial) bitstream generation.
//
// The tool's *runtime* is the quantity the paper characterizes (Section
// IV spends hundreds of machine-hours measuring it), so the simulation's
// heart is an empirical cost model: analytic formulas whose constants
// are fit against the paper's published measurements (Tables III, IV
// and V) by cmd/presp-calibrate, which scores them with
// internal/experiments. Times are virtual minutes; no real Vivado runs
// anywhere.
package vivado

import (
	"fmt"
	"math"
)

// Minutes is a CAD runtime in modelled minutes.
type Minutes float64

// String renders the runtime rounded to the paper's reporting precision.
func (m Minutes) String() string { return fmt.Sprintf("%.0f min", float64(m)) }

// CostModel holds the empirical runtime model of the CAD tool. The
// zero value is not useful; use DefaultCostModel (calibrated constants)
// or build one explicitly for sensitivity studies.
type CostModel struct {
	// --- Synthesis ---

	// SynthBase is the fixed per-instance synthesis overhead (tool
	// startup, HDL elaboration), in minutes.
	SynthBase float64
	// SynthPerK is the synthesis cost slope, minutes per kLUT^SynthExp.
	SynthPerK float64
	// SynthExp is the synthesis size exponent.
	SynthExp float64
	// SynthOoCFactor scales the cost in out-of-context mode (no top-level
	// constraint propagation).
	SynthOoCFactor float64

	// --- Place & route ---

	// ImplBase is the fixed per-instance implementation overhead.
	ImplBase float64
	// PRPerK and PRExp form the base place-and-route power law:
	// a·L^e with L in kLUT.
	PRPerK float64
	PRExp  float64
	// StaticCongestion scales the static-only pre-route cost with the
	// fraction of fabric reserved for reconfigurable pblocks (routing
	// must detour around the reserved regions).
	StaticCongestion float64
	// StitchPerRP is the per-partition cost of instantiating the empty
	// place-holder hard macros during the static pre-route.
	StitchPerRP float64
	// SerialPerRP is the per-partition DFX bookkeeping cost in a serial
	// (single instance) implementation.
	SerialPerRP float64
	// SerialCongestion scales serial implementation with pblock area.
	SerialCongestion float64

	// --- In-context runs ---

	// CtxBase is the fixed per-run overhead of an in-context
	// implementation (tool start, constraint application).
	CtxBase float64
	// LoadStaticPerK and LoadReconfPerK time loading the routed static
	// checkpoint: minutes per kLUT of routed static content and per kLUT
	// of reconfigurable content the checkpoint carries (as place-holder
	// macros and partition metadata) respectively.
	LoadStaticPerK float64
	LoadReconfPerK float64
	// CtxPerK and CtxExp form the in-context P&R power law for the
	// reconfigurable group being implemented.
	CtxPerK float64
	CtxExp  float64

	// --- Host ---

	// HostCores is the machine core count (the paper uses 16).
	HostCores int
	// VivadoCores is the core count one instance effectively uses (P&R
	// is largely sequential; the paper cites [18] for this).
	VivadoCores int
	// ContentionPerInstance is the fractional slowdown per instance
	// beyond the host's parallel capacity.
	ContentionPerInstance float64

	// --- Floorplanning ---

	// PblockSlack is the area head-room factor when reserving pblock
	// area for a partition (resources reserved = need × slack).
	PblockSlack float64

	// --- Bitstream generation ---

	// BitgenBase and BitgenPerK time full-bitstream generation.
	BitgenBase float64
	BitgenPerK float64

	// --- Measurement jitter (sensitivity studies) ---

	// JitterFrac adds deterministic pseudo-random run-to-run variation:
	// every modelled stage time is scaled by a factor in
	// [1-JitterFrac, 1+JitterFrac] keyed on (JitterSeed, stage, size).
	// Zero (the default) keeps the model fully deterministic.
	JitterFrac float64
	// JitterSeed selects the jitter realization.
	JitterSeed uint64
}

// jitter returns the stage's variation factor.
func (m *CostModel) jitter(stage string, size float64) float64 {
	if m.JitterFrac <= 0 {
		return 1
	}
	h := uint64(1469598103934665603)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for i := 0; i < 8; i++ {
		mix(byte(m.JitterSeed >> (8 * i)))
	}
	for i := 0; i < len(stage); i++ {
		mix(stage[i])
	}
	bits := math.Float64bits(size)
	for i := 0; i < 8; i++ {
		mix(byte(bits >> (8 * i)))
	}
	// Map the hash to [-1, 1).
	u := float64(h%(1<<20))/float64(1<<19) - 1
	return 1 + m.JitterFrac*u
}

// DefaultCostModel returns the model with constants calibrated against
// the paper's Tables III, IV and V by cmd/presp-calibrate (mean absolute
// error across the 35 published runtime cells is reported in
// EXPERIMENTS.md).
func DefaultCostModel() *CostModel {
	return &CostModel{
		SynthBase:      25.0,
		SynthPerK:      0.40969,
		SynthExp:       0.9,
		SynthOoCFactor: 1.3,

		ImplBase:         15.454,
		PRPerK:           0.08151,
		PRExp:            1.4263,
		StaticCongestion: 1.6235,
		StitchPerRP:      0,
		SerialPerRP:      0.69,
		SerialCongestion: 0.35,

		CtxBase:        15.997,
		LoadStaticPerK: 0.023629,
		LoadReconfPerK: 0.15607,
		CtxPerK:        2.1784,
		CtxExp:         0.6,

		HostCores:             16,
		VivadoCores:           4,
		ContentionPerInstance: 0.013415,

		PblockSlack: 1.25,

		BitgenBase: 2.0,
		BitgenPerK: 0.02,
	}
}

// Validate rejects models with non-physical parameters.
func (m *CostModel) Validate() error {
	if m.SynthPerK <= 0 || m.SynthExp <= 0 || m.PRPerK <= 0 || m.PRExp <= 0 {
		return fmt.Errorf("vivado: cost model has non-positive core coefficients")
	}
	if m.HostCores <= 0 || m.VivadoCores <= 0 {
		return fmt.Errorf("vivado: cost model has non-positive host configuration")
	}
	if m.PblockSlack < 1 {
		return fmt.Errorf("vivado: pblock slack %.2f < 1 cannot fit partitions", m.PblockSlack)
	}
	return nil
}

// SynthTime models synthesizing a netlist of kluts kLUTs. OoC mode is
// slightly cheaper per unit (no top-level constraint propagation).
func (m *CostModel) SynthTime(kluts float64, ooc bool) Minutes {
	if kluts <= 0 {
		return Minutes(m.SynthBase)
	}
	t := m.SynthBase + m.SynthPerK*math.Pow(kluts, m.SynthExp)
	if ooc {
		t = m.SynthBase + m.SynthOoCFactor*m.SynthPerK*math.Pow(kluts, m.SynthExp)
	}
	return Minutes(t * m.jitter("synth", kluts))
}

// prBase is the core place-and-route power law.
func (m *CostModel) prBase(kluts float64) float64 {
	if kluts <= 0 {
		return 0
	}
	return m.PRPerK * math.Pow(kluts, m.PRExp)
}

// SerialImplTime models a τ=1 DFX implementation of the whole design in
// one instance: total size totalK kLUTs, nRP partitions, with rpFrac of
// the fabric reserved as pblocks.
func (m *CostModel) SerialImplTime(totalK float64, nRP int, rpFrac float64) Minutes {
	t := m.ImplBase + m.prBase(totalK)*(1+m.SerialCongestion*clamp01(rpFrac)) + m.SerialPerRP*float64(nRP)
	return Minutes(t * m.jitter("serial", totalK))
}

// StaticPreRouteTime models the static-only P&R with place-holder hard
// macros of empty reconfigurable tiles (the intermediate step of the
// fully- and semi-parallel strategies).
func (m *CostModel) StaticPreRouteTime(staticK, rpFrac float64, nRP int) Minutes {
	t := m.ImplBase +
		m.prBase(staticK)*(1+m.StaticCongestion*clamp01(rpFrac)) +
		m.StitchPerRP*float64(nRP)
	return Minutes(t * m.jitter("static", staticK+rpFrac))
}

// InContextImplTime models one in-context P&R run implementing a group
// of reconfigurable modules totalling groupK kLUTs against a routed
// static checkpoint of staticK kLUTs belonging to a design with
// reconfContentK kLUTs of reconfigurable content overall.
func (m *CostModel) InContextImplTime(groupK, staticK, reconfContentK float64) Minutes {
	load := m.LoadStaticPerK*staticK + m.LoadReconfPerK*reconfContentK
	t := m.CtxBase + load + m.CtxPerK*math.Pow(groupK, m.CtxExp)
	return Minutes(t * m.jitter("context", groupK))
}

// Contention returns the slowdown multiplier when instances Vivado runs
// execute simultaneously on the host.
func (m *CostModel) Contention(instances int) float64 {
	cap := m.HostCores / m.VivadoCores
	if cap < 1 {
		cap = 1
	}
	if instances <= cap {
		return 1.0
	}
	return 1.0 + m.ContentionPerInstance*float64(instances-cap)
}

// ConcurrentWall is the wall time of runs executing at once as n Vivado
// instances on the host: the longest run, slowed by Contention(n). With
// one run it is that run's runtime under n-way contention.
func (m *CostModel) ConcurrentWall(n int, runs ...Minutes) Minutes {
	var longest Minutes
	for _, t := range runs {
		longest = max(longest, t)
	}
	return Minutes(float64(longest) * m.Contention(n))
}

// BitgenTime models generating one bitstream covering kluts kLUTs of
// fabric area.
func (m *CostModel) BitgenTime(kluts float64) Minutes {
	return Minutes(m.BitgenBase + m.BitgenPerK*kluts)
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
