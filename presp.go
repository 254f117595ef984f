// Package presp is an open-source platform for design and programming
// of partially reconfigurable SoCs — a full reimplementation, on a
// simulated substrate, of the PR-ESP system (Seyoum et al., DATE 2023).
//
// The platform combines an ESP-style tile-based SoC generator with a
// fully automated dynamic-partial-reconfiguration (DPR/DFX) FPGA flow
// featuring the paper's size-driven technique for parallel FPGA
// compilation, plus a software runtime reconfiguration manager.
//
// Everything hardware-facing is simulated: internal/fpga models the
// Xilinx parts, internal/vivado models the CAD tool (with a runtime
// cost model calibrated against the paper's published measurements),
// and internal/reconfig + internal/sim execute SoCs in virtual time.
//
// Typical use:
//
//	p, err := presp.NewPlatform("VC707")
//	soc, err := p.BuildSoC(cfg)            // elaborate a tile grid
//	res, err := p.RunFlow(ctx, soc, presp.FlowOptions{Compress: true})
//	rt, err := p.NewRuntime(soc)           // simulated Linux runtime
//
// RunExperiment regenerates every table and figure of the paper's
// evaluation; cmd/presp-bench is a thin CLI over it.
package presp

import (
	"context"
	"fmt"

	"presp/internal/accel"
	"presp/internal/bitstream"
	"presp/internal/core"
	"presp/internal/floorplan"
	"presp/internal/flow"
	"presp/internal/fpga"
	"presp/internal/reconfig"
	"presp/internal/server"
	"presp/internal/sim"
	"presp/internal/socgen"
	"presp/internal/vivado"
	"presp/internal/wami"
)

// Platform is the top-level entry point: a target board plus the
// accelerator registry and CAD model used by every flow run.
type Platform struct {
	dev   *fpga.Device
	reg   *accel.Registry
	model *vivado.CostModel
	cache *vivado.CheckpointCache
	stage *vivado.StageCache
}

// NewPlatform builds a platform for the named evaluation board (VC707,
// VCU118 or VCU128) with the default accelerator library (the five
// characterization accelerators plus the twelve WAMI kernels) and the
// calibrated CAD cost model.
func NewPlatform(board string) (*Platform, error) {
	dev, err := fpga.ByBoard(board)
	if err != nil {
		return nil, err
	}
	reg := accel.Default()
	if err := wami.AddTo(reg); err != nil {
		return nil, err
	}
	return &Platform{
		dev:   dev,
		reg:   reg,
		model: vivado.DefaultCostModel(),
		cache: vivado.NewCheckpointCache(),
		stage: vivado.NewStageCache(),
	}, nil
}

// CacheStats reports the platform-wide synthesis-checkpoint cache: hits
// and misses accumulated over every flow run. Repeated runs of the same
// design (strategy sweeps, baselines) hit the cache and skip their
// synthesis jobs.
func (p *Platform) CacheStats() (hits, misses int64) {
	return p.cache.Stats()
}

// StageCacheStats reports the platform-wide stage-artifact cache behind
// incremental re-flow: lookup hits and misses accumulated over every
// flow run's floorplan, implementation and bitgen probes. A re-run of
// an edited design hits on every stage the edit did not invalidate.
func (p *Platform) StageCacheStats() (hits, misses int64) {
	return p.stage.Stats()
}

// AttachDiskCache backs the platform's shared checkpoint cache with a
// crash-safe persistent tier at dir (created if absent): one
// CRC-verified file per cache key, written atomically, with corrupt
// entries quarantined rather than loaded. Every synthesis result is
// written through to disk, and cache misses are served from disk before
// any synthesis runs. Every flow run shares the tier with the platform's
// stage-artifact cache, so incremental re-flow hits survive restarts
// too. A platform in a later process pointed at the same directory —
// including the rerun of an interrupted flow — warm-starts. See
// DESIGN.md §14.
func (p *Platform) AttachDiskCache(dir string) error {
	store, err := vivado.OpenDiskStore(dir)
	if err != nil {
		return err
	}
	p.cache.SetDiskStore(store)
	return nil
}

// Device returns the platform's FPGA device model.
func (p *Platform) Device() *fpga.Device { return p.dev }

// Accelerators returns the accelerator registry (extend it with
// RegisterAccelerator before elaborating SoCs that use custom types).
func (p *Platform) Accelerators() *accel.Registry { return p.reg }

// SetCostModel overrides the CAD runtime model (for sensitivity
// studies); nil restores the calibrated default.
func (p *Platform) SetCostModel(m *vivado.CostModel) {
	if m == nil {
		m = vivado.DefaultCostModel()
	}
	p.model = m
}

// RegisterAccelerator adds a custom accelerator type to the platform.
func (p *Platform) RegisterAccelerator(d *accel.Descriptor) error {
	return p.reg.Register(d)
}

// SoC is an elaborated system: configuration plus RTL hierarchy and the
// static/reconfigurable split.
type SoC struct {
	Design *socgen.Design
}

// Name returns the SoC name.
func (s *SoC) Name() string { return s.Design.Cfg.Name }

// Metrics computes the Eq. (1) size metrics (κ, α_av, γ).
func (s *SoC) Metrics() (core.Metrics, error) { return core.ComputeMetrics(s.Design) }

// Classify returns the design's size-taxonomy class.
func (s *SoC) Classify() (core.Class, error) {
	m, err := s.Metrics()
	if err != nil {
		return 0, err
	}
	return core.Classify(m)
}

// BuildSoC validates and elaborates a tile-grid configuration. The
// configuration's board must match the platform's.
func (p *Platform) BuildSoC(cfg *socgen.Config) (*SoC, error) {
	if err := p.checkBoard(cfg); err != nil {
		return nil, err
	}
	d, err := socgen.Elaborate(cfg, p.reg)
	if err != nil {
		return nil, err
	}
	return &SoC{Design: d}, nil
}

// checkBoard rejects a configuration for another board than the
// platform's.
func (p *Platform) checkBoard(cfg *socgen.Config) error {
	if cfg.Board != p.dev.Board {
		return fmt.Errorf("presp: config targets %s but the platform is %s", cfg.Board, p.dev.Board)
	}
	return nil
}

// FlowOptions tunes a flow run. It is the flow engine's option struct
// verbatim — one definition, so every engine knob (Observer, FaultPlan,
// Heartbeat, ErrorPolicy, ...) is available here without facade
// mirroring. The platform fills Model and Cache with its own when the
// caller leaves them nil.
type FlowOptions = flow.Options

// flowOptions fills the platform-owned knobs (cost model, shared
// synthesis-checkpoint cache, stage-artifact cache) the caller left
// unset — the single conversion point between the facade and the flow
// engine.
func (p *Platform) flowOptions(opt FlowOptions) flow.Options {
	if opt.Model == nil {
		opt.Model = p.model
	}
	if opt.Cache == nil {
		opt.Cache = p.cache
	}
	if opt.StageCache == nil {
		opt.StageCache = p.stage
	}
	return opt
}

// FlowResult is the product of a flow run (see flow.Result).
type FlowResult = flow.Result

// RunFlow executes the PR-ESP FPGA flow (Fig 1 of the paper): parallel
// out-of-context synthesis, FLORA-style floorplanning, the size-driven
// strategy choice, orchestrated P&R and bitstream generation.
// Cancelling ctx (or letting its deadline expire) stops the run at the
// next job boundary, drains the worker pool and leaves the checkpoint
// cache consistent; after AttachDiskCache, rerunning resumes the run.
func (p *Platform) RunFlow(ctx context.Context, s *SoC, opt FlowOptions) (*FlowResult, error) {
	return flow.RunPRESP(ctx, s.Design, p.flowOptions(opt))
}

// RunMonolithicFlow executes the monolithic (flat, single-instance)
// baseline the paper compares compile times against, bounded by ctx.
func (p *Platform) RunMonolithicFlow(ctx context.Context, s *SoC, opt FlowOptions) (*FlowResult, error) {
	return flow.RunMonolithic(ctx, s.Design, p.flowOptions(opt))
}

// RunStandardDFXFlow executes the vendor DFX flow baseline, bounded by
// ctx: same partitioned outputs as PR-ESP but synthesized and
// implemented sequentially in one tool instance.
func (p *Platform) RunStandardDFXFlow(ctx context.Context, s *SoC, opt FlowOptions) (*FlowResult, error) {
	return flow.RunStandardDFX(ctx, s.Design, p.flowOptions(opt))
}

// ChooseStrategy runs only the size-driven decision (metrics,
// classification, Table I strategy).
func (p *Platform) ChooseStrategy(s *SoC) (*core.Strategy, error) {
	return core.Choose(s.Design)
}

// ForceStrategy builds a strategy of the requested kind for a SoC,
// bypassing the size-driven choice (for sweeps and ablations).
func ForceStrategy(s *SoC, kind core.StrategyKind, tau int) (*core.Strategy, error) {
	return core.ForceStrategy(s.Design, kind, tau)
}

// RoundRobinGroups partitions the SoC's reconfigurable tiles into tau
// groups with no load balancing — the ablation baseline for the LPT
// grouping the semi-parallel strategy uses.
func RoundRobinGroups(s *SoC, tau int) [][]string {
	return core.GroupRPsRoundRobin(s.Design, tau)
}

// Floorplan runs only the FLORA-style floorplanner.
func (p *Platform) Floorplan(s *SoC) (*floorplan.Plan, error) {
	return flow.FloorplanDesign(s.Design, p.model)
}

// UtilizationReport renders the vendor-style resource utilization
// report for the whole SoC on the platform's device.
func (p *Platform) UtilizationReport(s *SoC) (string, error) {
	tool, err := vivado.New(p.dev, p.model)
	if err != nil {
		return "", err
	}
	used := s.Design.StaticResources.Add(s.Design.ReconfigurableResources())
	return tool.UtilizationReport(s.Design.Cfg.Name, used), nil
}

// FlowService is the multi-tenant flow-as-a-service server behind
// cmd/presp-served: a bounded admission queue with backpressure,
// per-tenant round-robin fair scheduling, single-flight deduplication
// of identical submissions and graceful drain. With a StateDir it is
// also crash-durable: every admission is logged to a write-ahead log
// before the client sees 202, and Recover replays the log on the next
// boot — re-enqueueing lost jobs, whose reruns reuse finished synthesis
// from the checkpoint disk tier. Serve its Handler over HTTP, or drive
// Submit/SubmitIdempotent/Get/Cancel in process. See DESIGN.md §13/§15.
type FlowService = server.Server

// FlowServiceConfig tunes a FlowService (see server.Config).
type FlowServiceConfig = server.Config

// FlowRecoveryStats summarizes one FlowService.Recover pass over the
// write-ahead log.
type FlowRecoveryStats = server.RecoveryStats

// FlowJobSpec is the client-facing description of one service job —
// the JSON body of POST /v1/jobs.
type FlowJobSpec = server.Spec

// FlowJob is the wire form of a submitted job.
type FlowJob = server.JobView

// NewFlowService starts a flow service. Callers must Shutdown it.
func NewFlowService(cfg FlowServiceConfig) *FlowService { return server.New(cfg) }

// NewFlowService starts a flow service that shares the platform's
// synthesis-checkpoint and stage-artifact caches, so service jobs and
// in-process RunFlow calls reuse each other's checkpoints and stage
// results.
func (p *Platform) NewFlowService(cfg FlowServiceConfig) *FlowService {
	if cfg.Cache == nil {
		cfg.Cache = p.cache
	}
	if cfg.StageCache == nil {
		cfg.StageCache = p.stage
	}
	return server.New(cfg)
}

// Runtime is a simulated SoC instance under the reconfiguration
// manager: stage bitstreams, invoke accelerators, read timing and
// energy.
type Runtime struct {
	// Manager is the Section V reconfiguration manager.
	Manager *reconfig.Runtime
	// Engine is the virtual clock driving the instance.
	Engine *sim.Engine
	// Plan is the floorplan the bitstreams were generated against.
	Plan *floorplan.Plan
	soc  *SoC
}

// NewRuntime boots a simulated runtime for the SoC with the default
// runtime configuration.
func (p *Platform) NewRuntime(s *SoC) (*Runtime, error) {
	return p.NewRuntimeWithConfig(s, reconfig.DefaultConfig())
}

// NewRuntimeWithConfig boots a simulated runtime with an explicit
// configuration.
func (p *Platform) NewRuntimeWithConfig(s *SoC, cfg reconfig.Config) (*Runtime, error) {
	plan, err := p.Floorplan(s)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	mgr, err := reconfig.New(eng, s.Design, p.reg, plan, cfg)
	if err != nil {
		return nil, err
	}
	return &Runtime{Manager: mgr, Engine: eng, Plan: plan, soc: s}, nil
}

// StageBitstreams generates and registers compressed partial bitstreams
// for every (tile, accelerator) pair of the allocation; generation runs
// on the flow's worker pool and stops at the next bitstream boundary
// when ctx is cancelled.
func (p *Platform) StageBitstreams(ctx context.Context, rt *Runtime, alloc map[string][]string, compress bool) (map[string]map[string]*bitstream.Bitstream, error) {
	bss, err := flow.GenerateRuntimeBitstreams(ctx, rt.soc.Design, rt.Plan, alloc, p.reg, compress, 0)
	if err != nil {
		return nil, err
	}
	if err := rt.Manager.RegisterBitstreams(bss); err != nil {
		return nil, err
	}
	return bss, nil
}

// Invoke runs an accelerator on a reconfigurable tile and blocks (in
// virtual time) until the completion interrupt: it drives the engine
// until the result arrives.
func (rt *Runtime) Invoke(tileName, accName string, in [][]float64) (*reconfig.InvokeResult, error) {
	var res *reconfig.InvokeResult
	var rerr error
	done := false
	rt.Manager.InvokeOn(tileName, accName, in, func(r *reconfig.InvokeResult, err error) {
		res, rerr, done = r, err, true
	})
	for !done && rt.Engine.Step() {
	}
	if !done {
		return nil, fmt.Errorf("presp: invocation of %s on %s never completed (deadlock)", accName, tileName)
	}
	return res, rerr
}

// Baremetal returns the no-OS driver view of the runtime: explicit,
// polling-based reconfiguration and invocation without the Linux
// manager's workqueue (Section V supports both stacks).
func (rt *Runtime) Baremetal() (*reconfig.Baremetal, error) {
	return reconfig.NewBaremetal(rt.Manager)
}

// Reconfigure swaps the named accelerator into the tile and blocks (in
// virtual time) until the new driver is bound.
func (rt *Runtime) Reconfigure(tileName, accName string) error {
	var rerr error
	done := false
	rt.Manager.RequestReconfig(tileName, accName, func(err error) {
		rerr, done = err, true
	})
	for !done && rt.Engine.Step() {
	}
	if !done {
		return fmt.Errorf("presp: reconfiguration of %s never completed (deadlock)", tileName)
	}
	return rerr
}
