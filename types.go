package presp

import (
	"fmt"

	"presp/internal/accel"
	"presp/internal/bitstream"
	"presp/internal/core"
	"presp/internal/experiments"
	"presp/internal/faultinject"
	"presp/internal/floorplan"
	"presp/internal/flow"
	"presp/internal/fpga"
	"presp/internal/noc"
	"presp/internal/obs"
	"presp/internal/reconfig"
	"presp/internal/socgen"
	"presp/internal/tile"
	"presp/internal/vivado"
	"presp/internal/wami"
)

// Public aliases of the platform's core types, so applications build
// against the presp package alone.
type (
	// Config describes a SoC: board, tile grid, clock.
	Config = socgen.Config
	// Tile is one populated grid slot.
	Tile = tile.Tile
	// Coord addresses a tile in the mesh.
	Coord = noc.Coord
	// Resources is an FPGA resource vector (LUT/FF/BRAM/DSP).
	Resources = fpga.Resources
	// Metrics holds the Eq. (1) size metrics κ, α_av, γ.
	Metrics = core.Metrics
	// Strategy is a P&R implementation plan.
	Strategy = core.Strategy
	// StrategyKind is serial / semi-parallel / fully-parallel.
	StrategyKind = core.StrategyKind
	// Class is the five-class size taxonomy.
	Class = core.Class
	// FloorPlan maps partitions to placement pblocks.
	FloorPlan = floorplan.Plan
	// Bitstream is a generated (partial) configuration image.
	Bitstream = bitstream.Bitstream
	// AccelDescriptor describes an accelerator type.
	AccelDescriptor = accel.Descriptor
	// AccelKernel is an accelerator's functional model.
	AccelKernel = accel.Kernel
	// RuntimeConfig tunes the simulated runtime.
	RuntimeConfig = reconfig.Config
	// InvokeResult carries an accelerator invocation's outputs/timing.
	InvokeResult = reconfig.InvokeResult
	// FaultPlan is a seeded, deterministic fault-injection plan for the
	// runtime (set it on RuntimeConfig.FaultPlan).
	FaultPlan = faultinject.Plan
	// FaultRule is one injection rule of a FaultPlan.
	FaultRule = faultinject.Rule
	// Fault is the error an injected fault reports; test for it with
	// IsFault.
	Fault = faultinject.Fault
	// ErrTileDead reports a request against a tile the runtime declared
	// dead after repeated reconfiguration failures.
	ErrTileDead = reconfig.ErrTileDead
	// ScrubStats counts the configuration-memory scrubber's activity
	// (see Runtime.ScrubStats; enabled by RuntimeConfig.ScrubInterval).
	ScrubStats = reconfig.ScrubStats
	// ConfigHealth is a tile's configuration-memory readback state
	// (see Runtime.ConfigHealth).
	ConfigHealth = reconfig.ConfigHealth
	// Minutes is the cost model's modelled-runtime unit.
	Minutes = vivado.Minutes
	// JobError reports one failed flow job (Result.JobErrors, or the
	// run error under the fail-fast policy).
	JobError = flow.JobError
	// ErrorPolicy selects fail-fast or collect semantics for flow job
	// failures (FlowOptions.ErrorPolicy).
	ErrorPolicy = flow.ErrorPolicy
	// Observer bundles a metrics registry and a Chrome-trace tracer;
	// attach one via FlowOptions.Observer or RuntimeConfig.Observer to
	// record a run (see NewObserver).
	Observer = obs.Observer
)

// Fault-injection operations, re-exported for building FaultRules. The
// runtime operations are injected by presp-sim's simulation engine;
// the CAD operations by the flow engine (FlowOptions.FaultPlan).
const (
	FaultTransfer = faultinject.OpTransfer
	FaultDecouple = faultinject.OpDecouple
	FaultRecouple = faultinject.OpRecouple
	FaultICAP     = faultinject.OpICAP
	FaultFetchCRC = faultinject.OpFetchCRC
	FaultKernel   = faultinject.OpKernel
	FaultSEU      = faultinject.OpSEU

	FaultCADSynth     = faultinject.OpCADSynth
	FaultCADFloorplan = faultinject.OpCADFloorplan
	FaultCADImpl      = faultinject.OpCADImpl
	FaultCADBitgen    = faultinject.OpCADBitgen
	FaultCADDRC       = faultinject.OpCADDRC
)

// ParseFaultPlan parses the textual fault-plan syntax shared by
// presp-sim's -faults flag (runtime ops) and presp-flow's (CAD ops):
//
//	seed=<n>,<op>[@<site>][=<rate>][:after=<n>][:count=<n>],...
func ParseFaultPlan(s string) (*FaultPlan, error) { return faultinject.ParsePlan(s) }

// IsFault reports whether err is (or wraps) an injected fault, and
// returns it.
func IsFault(err error) (*Fault, bool) { return faultinject.As(err) }

// Tile kinds, re-exported.
const (
	TileCPU    = tile.CPU
	TileMem    = tile.Mem
	TileAux    = tile.Aux
	TileSLM    = tile.SLM
	TileAccel  = tile.Accel
	TileReconf = tile.Reconf
)

// Strategy kinds, re-exported.
const (
	Serial        = core.Serial
	SemiParallel  = core.SemiParallel
	FullyParallel = core.FullyParallel
)

// Flow error policies, re-exported.
const (
	// FailFast stops dispatching new flow jobs after the first failure.
	FailFast = flow.FailFast
	// Collect keeps independent subgraphs running past failures and
	// reports them all in Result.JobErrors.
	Collect = flow.Collect
)

// NewObserver returns an observability handle — a fresh metrics
// registry plus tracer. Attach it to FlowOptions.Observer and/or
// RuntimeConfig.Observer, then export with Metrics().WriteJSON
// (expvar-style flat JSON) and Tracer().WriteJSON (Chrome trace-event
// JSON, loadable in Perfetto). A nil *Observer disables all
// observation at no cost, and observation never changes results.
func NewObserver() *Observer { return obs.New() }

// DefaultRuntimeConfig returns the evaluation runtime configuration.
func DefaultRuntimeConfig() RuntimeConfig { return reconfig.DefaultConfig() }

// PresetConfig returns a built-in SoC configuration by name: the
// paper's characterization SoCs (SOC_1..SOC_4), the WAMI flow SoCs
// (SoC_A..SoC_D) and the runtime SoCs (SoC_X/SoC_Y/SoC_Z).
func PresetConfig(name string) (*Config, error) {
	return experiments.PresetConfig(name)
}

// PresetNames lists the built-in configurations.
func PresetNames() []string { return experiments.PresetNames() }

// WAMIRuntimeSoC returns a runtime SoC's configuration together with
// its Table VI accelerator-to-tile allocation (kernel indices per tile).
func WAMIRuntimeSoC(name string) (*Config, map[string][]int, error) {
	cfg, alloc, err := wami.RuntimeSoC(name)
	return cfg, map[string][]int(alloc), err
}

// WAMIKernelName maps a Fig 3 kernel index to its accelerator name.
func WAMIKernelName(idx int) (string, error) {
	n, ok := wami.Names[idx]
	if !ok {
		return "", fmt.Errorf("presp: unknown WAMI kernel index %d", idx)
	}
	return n, nil
}
