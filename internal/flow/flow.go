// Package flow implements the PR-ESP FPGA flow of Fig. 1 — parse the SoC
// configuration, split static from reconfigurable sources, synthesize
// everything in parallel (out-of-context), floorplan the partitions,
// choose the size-driven P&R parallelism strategy and orchestrate the
// implementation runs through bitstream generation — plus the baseline
// it is evaluated against: Xilinx's standard DFX flow in a single tool
// instance ("monolithic" in Table V).
//
// Every flow run is executed as a dependency-aware job graph (see
// scheduler.go) on a bounded pool of worker goroutines: synthesis jobs
// fan out first, floorplanning joins them, the per-partition
// implementation runs fan out again and bitstream generation closes the
// graph. Reported times stay the analytic values of the cost model —
// the pool parallelizes the *simulation*, not the modelled clock — and
// results are byte-identical for every worker count.
//
// Runs are fault-tolerant, cancellable and resumable: the caller's
// context stops the graph at the next job boundary, failed
// jobs are retried with capped virtual-time backoff, seeded CAD faults
// can be injected from a faultinject plan, and a rerun of a killed run
// over a checkpoint cache with the same disk tier (Options.Cache; see
// vivado.CheckpointCache.SetDiskStore) reuses every synthesis it
// finished. See DESIGN.md §11 for the failure semantics.
package flow

import (
	"context"
	"fmt"
	"sort"

	"presp/internal/bitstream"
	"presp/internal/core"
	"presp/internal/faultinject"
	"presp/internal/floorplan"
	"presp/internal/fpga"
	"presp/internal/obs"
	"presp/internal/report"
	"presp/internal/rtl"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

// ErrorPolicy selects what a flow run does with job failures.
type ErrorPolicy int

const (
	// FailFast (the default) stops dispatching new jobs after the first
	// failure and returns it as the run error.
	FailFast ErrorPolicy = iota
	// Collect keeps independent subgraphs running: partitions that do
	// not depend on the failed job still implement, and the Result
	// carries every failure in JobErrors with Partial set.
	Collect
)

// String names the policy.
func (p ErrorPolicy) String() string {
	switch p {
	case FailFast:
		return "fail-fast"
	case Collect:
		return "collect"
	default:
		return fmt.Sprintf("ErrorPolicy(%d)", int(p))
	}
}

// Options tunes a flow run.
type Options struct {
	// Model overrides the CAD cost model (nil = calibrated default).
	Model *vivado.CostModel
	// Strategy forces a strategy instead of the size-driven choice.
	// Nil lets core.Choose decide.
	Strategy *core.Strategy
	// SemiTau is the semi-parallel degree when the chooser selects
	// semi-parallel (0 = core.DefaultSemiTau); a degree outside
	// 1 < τ < N fails the run (core.ChooseWithTau).
	SemiTau int
	// Compress enables bitstream compression (the paper's deployment
	// configuration).
	Compress bool
	// SkipBitstreams stops after P&R, for timing-only studies.
	SkipBitstreams bool
	// Workers bounds the job-scheduler worker pool (0 = GOMAXPROCS,
	// negative is rejected; see NormalizeWorkers). The knob trades real
	// CPU parallelism only; reported wall times are identical for every
	// value.
	Workers int
	// Cache is a shared synthesis-checkpoint cache; runs with a warm
	// cache skip re-synthesizing unchanged modules (nil = no cache).
	// The flow keys every synthesis job itself (stagekeys.go), also
	// under a FaultPlan, whose synthesis faults fire before the lookup.
	// Checkpoints are served shared, like stage artifacts, and never
	// written. The caller owns the cache and may attach a persistent
	// disk tier (SetDiskStore): each checkpoint then reaches disk before
	// its synthesis job completes, so a later run — or the rerun of an
	// interrupted one — over a cache on the same directory warm-starts
	// instead of re-synthesizing.
	Cache *vivado.CheckpointCache
	// StageCache is a shared stage-artifact cache enabling incremental
	// re-flow: floorplan solutions, implementation results and bitstream
	// images are content-addressed (see stagekeys.go), so a re-run — or
	// a run of an edited design — skips every job whose inputs are
	// unchanged and re-executes exactly the invalidated chain. Nil (the
	// default) disables stage caching; runs under a FaultPlan ignore it
	// (a skip would bypass the injected faults). When the checkpoint
	// cache has a disk tier and the stage cache has none, the tier is
	// shared so incremental hits survive restarts. Skips preserve the
	// determinism contract: a warm run's results are byte-identical to
	// the cold run that populated the cache — they are the very values
	// (plans, images) that run published, shared rather than copied, so
	// every Result produced with a stage cache is read-only.
	StageCache *vivado.StageCache

	// MaxJobRetries re-runs a failed job up to this many extra times
	// with virtual-time backoff — 15 modelled minutes, doubling per
	// attempt up to 120 (default 0 = no retries). Cancellation is never
	// retried.
	MaxJobRetries int
	// ErrorPolicy selects fail-fast (default) or collect semantics for
	// job failures.
	ErrorPolicy ErrorPolicy
	// FaultPlan injects seeded CAD faults (synth/floorplan/impl/
	// bitgen/drc ops; see faultinject.ParsePlan) through the tool's
	// fault hook. Injection is order-independent, so results under
	// faults stay byte-identical for every worker count.
	FaultPlan *faultinject.Plan
	// Heartbeat, when set, is called from the scheduler coordinator
	// once per job the stage cache settled (before any job runs) and
	// after every job that succeeded (never after a failed one) with
	// the cumulative count of such jobs and the run's virtual-time
	// position (sum of their modelled minutes). The server uses each
	// call only as a wall-clock liveness signal: its stall watchdog
	// records when the last heartbeat came, not what it reports. Calls
	// are serialized; the callback must not block.
	Heartbeat func(completed int, virtual vivado.Minutes)
	// Observer records metrics and trace spans for the run: scheduler
	// job lifecycle, worker occupancy, per-stage runtime histograms,
	// cost-model op timings and checkpoint-cache traffic. Nil (the
	// default) disables all observation at no cost, and observation
	// never feeds back into results — traced runs stay byte-identical
	// to untraced ones at any worker count.
	Observer *obs.Observer
}

// GroupRun records one in-context P&R run (one Ω of the paper's model).
type GroupRun struct {
	// Partitions lists the RP names implemented in the run.
	Partitions []string
	// Runtime is the run's modelled duration.
	Runtime vivado.Minutes
}

// Result is the product of a full flow run.
type Result struct {
	// Design is the elaborated SoC.
	Design *socgen.Design
	// Strategy is the implementation strategy used.
	Strategy *core.Strategy
	// Plan is the floorplan (nil for the standard-DFX baseline, which
	// also floorplans but whose plan is identical; kept for inspection).
	Plan *floorplan.Plan
	// SynthWall is the wall-clock synthesis time (parallel OoC for
	// PR-ESP; sequential for the baseline).
	SynthWall vivado.Minutes
	// SynthRuns records per-module synthesis times.
	SynthRuns map[string]vivado.Minutes
	// TStatic is the static-only pre-route time (zero for serial).
	TStatic vivado.Minutes
	// Groups records the in-context runs (empty for serial).
	Groups []GroupRun
	// MaxOmega is the longest in-context run after host contention.
	MaxOmega vivado.Minutes
	// PRWall is the wall-clock P&R time: TStatic + MaxOmega for the
	// parallel strategies, the single-instance run for serial.
	PRWall vivado.Minutes
	// BitgenWall is the bitstream generation time (parallelized with τ).
	BitgenWall vivado.Minutes
	// Total is SynthWall + PRWall (the paper's T_tot excludes bitgen,
	// which Tables III-V fold into P&R; we keep it separate and report
	// both).
	Total vivado.Minutes
	// FullBitstream and PartialBitstreams are the generated images.
	FullBitstream     *bitstream.Bitstream
	PartialBitstreams []*bitstream.Bitstream
	// Scripts are the auto-generated CAD scripts documenting the run.
	Scripts *Scripts
	// Partial is set under the Collect error policy when some jobs
	// failed: the result carries whatever independent subgraphs
	// produced, and JobErrors lists what did not.
	Partial bool
	// JobErrors lists the job failures of a Partial run, sorted in
	// graph-insertion order (the order a sequential run would have hit
	// them).
	JobErrors []JobError
	// Jobs reports the scheduler execution: per-stage job counts,
	// cancellations, retries and checkpoint-cache hits/misses.
	Jobs JobStats
}

// flowMode selects between the PR-ESP flow and the standard-DFX
// baseline, which share the job graph but aggregate differently.
type flowMode int

const (
	modePRESP flowMode = iota
	modeStandardDFX
)

// name labels the mode in stage keys, matching the presp-flow CLI.
func (m flowMode) name() string {
	if m == modeStandardDFX {
		return "standard-dfx"
	}
	return "presp"
}

// RunPRESP executes the PR-ESP flow on design d, bounded by ctx:
// cancellation (or an expired deadline) stops the run at the next job
// boundary, drains the worker pool and leaves the checkpoint cache
// (and its disk tier) consistent for a later rerun. Designs without
// reconfigurable tiles (plain ESP SoCs with native accelerator tiles)
// fall through to the monolithic implementation — the flow degrades
// gracefully to the base ESP behaviour.
func RunPRESP(ctx context.Context, d *socgen.Design, opt Options) (*Result, error) {
	if len(d.RPs) == 0 {
		return RunMonolithic(ctx, d, opt)
	}
	return runPartitioned(ctx, d, opt, modePRESP)
}

// RunStandardDFX executes the baseline, bounded by ctx: the vendor DFX
// flow in a single tool instance — sequential synthesis of the static
// part and every reconfigurable module, then a serial whole-design
// implementation.
func RunStandardDFX(ctx context.Context, d *socgen.Design, opt Options) (*Result, error) {
	return runPartitioned(ctx, d, opt, modeStandardDFX)
}

// FlowNames lists the runnable flow names RunFlow accepts, in a stable
// order: the PR-ESP flow, the vendor standard-DFX baseline and the
// monolithic (plain ESP) baseline.
func FlowNames() []string {
	return []string{"presp", "standard-dfx", "monolithic"}
}

// RunFlow dispatches a flow run by name — the naming shared by
// presp-flow and the flow service. Unknown names are rejected before
// any work starts.
func RunFlow(ctx context.Context, flowName string, d *socgen.Design, opt Options) (*Result, error) {
	switch flowName {
	case "", "presp":
		return RunPRESP(ctx, d, opt)
	case "standard-dfx":
		return RunStandardDFX(ctx, d, opt)
	case "monolithic":
		return RunMonolithic(ctx, d, opt)
	default:
		return nil, fmt.Errorf("flow: unknown flow %q (want one of %v)", flowName, FlowNames())
	}
}

// chooseStrategy resolves the implementation strategy up front (it
// depends only on the elaborated design), so the whole job graph can be
// built before execution starts.
func chooseStrategy(d *socgen.Design, opt Options, mode flowMode) (*core.Strategy, error) {
	if mode == modeStandardDFX {
		return core.ForceStrategy(d, core.Serial, 1)
	}
	if opt.Strategy != nil {
		return opt.Strategy, nil
	}
	return core.ChooseWithTau(d, opt.SemiTau)
}

// setupRun prepares the tool for one flow execution: fault injection
// from the plan and the checkpoint cache, whose disk tier the stage
// cache shares.
func setupRun(d *socgen.Design, opt Options) (*vivado.Tool, error) {
	tool, err := vivado.New(d.Dev, opt.Model)
	if err != nil {
		return nil, err
	}
	if opt.FaultPlan != nil {
		inj, err := faultinject.New(*opt.FaultPlan)
		if err != nil {
			return nil, err
		}
		tool.SetFaultHook(inj.Check)
	}
	if opt.StageCache != nil && opt.StageCache.Disk() == nil && opt.Cache != nil && opt.Cache.Disk() != nil {
		// Share the checkpoint tier's disk store: artifact entries use
		// their own file extension, so the two caches never collide, and
		// incremental hits survive restarts alongside the checkpoints.
		opt.StageCache.SetDiskStore(opt.Cache.Disk())
	}
	tool.SetCache(opt.Cache)
	tool.SetObserver(opt.Observer)
	return tool, nil
}

// execGraph runs the built graph under the options' retry and error
// policy, filling res.Jobs, res.Partial and res.JobErrors. It returns
// the run-fatal error: execution-level failures (cancellation, bad
// graph) or — under fail-fast — the first job failure.
func execGraph(ctx context.Context, g *graph, tool *vivado.Tool, opt Options, res *Result) error {
	stats, jobErrs, execErr := g.execute(ctx, opt)
	res.Jobs = stats
	res.Jobs.CacheHits, res.Jobs.CacheMisses = cacheCounts(tool)
	if execErr != nil {
		return execErr
	}
	if len(jobErrs) > 0 {
		res.JobErrors = jobErrs
		if opt.ErrorPolicy != Collect {
			return jobErrs[0]
		}
		res.Partial = true
	}
	return nil
}

// runPartitioned builds and executes the partitioned-design job graph:
//
//	synth/static ─┐                        ┌─ impl/group_i ─┬─ bitgen/<rp ∈ group_i>
//	synth/<rp>  ──┼─ floorplan ─ scripts ──┼─ ...           ├─ bitgen/full/0..3 ─ bitgen/full
//	...         ──┘                        └─ impl/serial  ─┘
//
// Partial bitstreams depend only on the implementation run that covers
// their partition (and on the floorplan, whose pblocks they read), so
// under the Collect policy a failed group does not block the others'
// bitstreams. The full-device image is encoded as fullChunks chunk jobs
// that bitgen/full stitches (see addFullBitgen), so the graph's tail
// keeps every worker busy. Every post-synthesis job whose artifact the
// stage cache holds is settled while the graph is built: its cached
// result is published before execution starts and the job never runs;
// a settled bitgen/full brings no chunk jobs.
func runPartitioned(ctx context.Context, d *socgen.Design, opt Options, mode flowMode) (*Result, error) {
	tool, err := setupRun(d, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{Design: d, SynthRuns: make(map[string]vivado.Minutes)}
	res.Strategy, err = chooseStrategy(d, opt, mode)
	if err != nil {
		return nil, err
	}

	// Content addresses: every synthesis job gets its checkpoint key and
	// every post-synthesis job a stage key derived from its inputs, so a
	// job whose artifact is cached is settled while the graph is built.
	// Nil when the run has no cache (see buildStageKeys). A frozen
	// design's static top and keys come from its memo (memoFor).
	memo := memoFor(d, opt)
	staticMod := memo.staticTopOf(d)
	sk := buildStageKeys(d, memo, staticMod, tool, res.Strategy, opt, mode)

	g := &graph{}

	// --- Parse & split, then OoC synthesis (Fig 1): one job per
	// module, all independent. ---
	var staticRes fpga.Resources
	for _, m := range d.StaticModules {
		staticRes = staticRes.Add(m.TotalCost())
	}
	// Each synthesis job publishes its checkpoint in its own slot:
	// staticCk, or rpCks[i] for d.RPs[i]. Only the jobs that depend on a
	// synthesis read its slot, so the scheduler orders every read after
	// the write.
	var staticCk *vivado.SynthCheckpoint
	rpCks := make([]*vivado.SynthCheckpoint, len(d.RPs))
	synthStatic := g.add("synth/static", StageSynth, nil, func(ctx context.Context) (vivado.Minutes, error) {
		ck, err := tool.Synthesize(ctx, sk.key("synth/static"), staticMod, false, "static")
		if err != nil {
			return 0, fmt.Errorf("flow: static synthesis: %w", err)
		}
		if got := ck.Resources[fpga.LUT]; got != staticRes[fpga.LUT] {
			return 0, fmt.Errorf("flow: static split lost logic: top has %d LUTs, tiles sum to %d",
				got, staticRes[fpga.LUT])
		}
		staticCk = ck
		return ck.Runtime, nil
	})
	synthAll := []int{synthStatic}              // then d.RPs[i]'s synthesis at 1+i
	rpIndex := make(map[string]int, len(d.RPs)) // partition -> its slot in rpCks
	for i, rp := range d.RPs {
		i, rp := i, rp
		h := g.add("synth/"+rp.Name, StageSynth, nil, func(ctx context.Context) (vivado.Minutes, error) {
			if rp.Content == nil {
				return 0, fmt.Errorf("flow: partition %s has no initial content to synthesize", rp.Name)
			}
			ck, err := tool.Synthesize(ctx, sk.key("synth/"+rp.Name), rp.Content, true, rp.Name)
			if err != nil {
				return 0, fmt.Errorf("flow: OoC synthesis of %s: %w", rp.Name, err)
			}
			rpCks[i] = ck
			return ck.Runtime, nil
		})
		synthAll = append(synthAll, h)
		rpIndex[rp.Name] = i
	}

	// --- Floorplanning (FLORA-adapted), plus the DFX design rule
	// checks the PR-ESP flow enforces. It consumes the elaborated
	// resource envelopes and the static split — not the OoC checkpoints
	// — so it joins only the static synthesis; each partition's
	// synthesis joins at the implementation run that consumes its
	// checkpoint. One wedged partition therefore cannot cancel the
	// whole plan under the Collect policy. Every job that reads the plan
	// depends on this job directly: a settled job in between orders
	// nothing. ---
	fp := addStage(g, sk, "floorplan", StagePlan, []int{synthStatic},
		func(ctx context.Context) (*floorplan.Plan, vivado.Minutes, error) {
			if err := tool.CheckFault(ctx, faultinject.OpCADFloorplan, d.Cfg.Name); err != nil {
				return nil, 0, err
			}
			plan, err := FloorplanDesign(d, tool.Model())
			if err != nil {
				return nil, 0, err
			}
			if mode == modePRESP {
				for _, rp := range d.RPs {
					pb, ok := plan.Pblocks[rp.Name]
					if !ok {
						return nil, 0, fmt.Errorf("flow: floorplan lost partition %s", rp.Name)
					}
					if err := tool.CheckDFX(ctx, rp.Content, rp.Resources, pb); err != nil {
						return nil, 0, fmt.Errorf("flow: partition %s: %w", rp.Name, err)
					}
				}
			}
			return plan, 0, nil
		},
		func(plan *floorplan.Plan, _ vivado.Minutes) { res.Plan = plan })

	// --- Script generation (documents every decision made so far). ---
	implGate := []int{fp}
	if mode == modePRESP {
		implGate = append(implGate, addStage(g, sk, "scripts", StagePlan, []int{fp},
			func(_ context.Context) (*Scripts, vivado.Minutes, error) {
				s, err := GenerateScripts(d, res.Strategy, res.Plan)
				if err != nil {
					return nil, 0, err
				}
				return s, 0, nil
			},
			func(s *Scripts, _ vivado.Minutes) { res.Scripts = s }))
	}

	// --- Orchestrated P&R per the chosen strategy. ---
	var impls []int
	implFor := make(map[string]int, len(d.RPs)) // partition -> its impl job
	var rs *vivado.RoutedStatic
	ctxResults := make([]*vivado.ContextResult, len(res.Strategy.Groups))
	switch res.Strategy.Kind {
	case core.Serial:
		h := addStage(g, sk, "impl/serial", StageImpl, append(append([]int(nil), synthAll...), implGate...),
			func(ctx context.Context) (*vivado.SerialResult, vivado.Minutes, error) {
				total := d.StaticResources.Add(d.ReconfigurableResources())
				sr, err := tool.ImplementSerial(ctx, d.Cfg.Name, total, len(d.RPs), res.Plan.RPFraction)
				if err != nil {
					return nil, 0, err
				}
				return sr, sr.Runtime, nil
			},
			func(sr *vivado.SerialResult, _ vivado.Minutes) { res.PRWall = sr.Runtime })
		impls = []int{h}
		for _, rp := range d.RPs {
			implFor[rp.Name] = h
		}
	case core.SemiParallel, core.FullyParallel:
		static := addStage(g, sk, "impl/static", StageImpl, append([]int{synthStatic}, implGate...),
			func(ctx context.Context) (*vivado.RoutedStatic, vivado.Minutes, error) {
				r, err := tool.PreRouteStatic(ctx, d.Cfg.Name, staticCk, res.Plan.Pblocks, d.ReconfigurableResources())
				if err != nil {
					return nil, 0, err
				}
				return r, r.Runtime, nil
			},
			func(r *vivado.RoutedStatic, _ vivado.Minutes) {
				// A settled pre-route must still anchor the group runs that
				// miss: rs is the cached artifact, bit-for-bit the routed
				// static a live run would have produced.
				rs = r
				res.TStatic = r.Runtime
			})
		for gi, group := range res.Strategy.Groups {
			gi, group := gi, group
			deps := []int{static}
			for _, name := range group {
				deps = append(deps, synthAll[1+rpIndex[name]])
			}
			h := addStage(g, sk, groupJobID(gi), StageImpl, deps,
				func(ctx context.Context) (*vivado.ContextResult, vivado.Minutes, error) {
					cks := make(map[string]*vivado.SynthCheckpoint, len(group))
					for _, name := range group {
						cks[name] = rpCks[rpIndex[name]]
					}
					cr, err := tool.ImplementInContext(ctx, rs, group, cks)
					if err != nil {
						return nil, 0, err
					}
					return cr, cr.Runtime, nil
				},
				func(cr *vivado.ContextResult, _ vivado.Minutes) { ctxResults[gi] = cr })
			impls = append(impls, h)
			for _, name := range group {
				implFor[name] = h
			}
		}
	default:
		return nil, fmt.Errorf("flow: unknown strategy %v", res.Strategy.Kind)
	}

	// --- Bitstream generation: the full-device image joining all of
	// P&R (chunk jobs plus their assembly), plus one partial per
	// partition depending only on the run that implemented it (and the
	// floorplan, whose pblock it spans). ---
	var fullT vivado.Minutes
	partials := make([]*bitstream.Bitstream, len(d.RPs))
	partialT := make([]vivado.Minutes, len(d.RPs))
	if !opt.SkipBitstreams {
		addFullBitgen(g, tool, sk, impls, d.Cfg.Name+".bit", d.StaticResources.Add(d.ReconfigurableResources()), opt.Compress,
			func(full *bitstream.Bitstream, t vivado.Minutes) {
				res.FullBitstream = full
				fullT = t
			})
		for i, rp := range d.RPs {
			i, rp := i, rp
			deps := append([]int{fp}, impls...)
			if h, ok := implFor[rp.Name]; ok {
				deps = []int{fp, h}
			}
			addStage(g, sk, "bitgen/"+rp.Name, StageBitgen, deps,
				func(ctx context.Context) (*bitstream.Bitstream, vivado.Minutes, error) {
					pb, ok := res.Plan.Pblocks[rp.Name]
					if !ok {
						return nil, 0, fmt.Errorf("flow: no pblock for partition %s", rp.Name)
					}
					name := fmt.Sprintf("%s.%s.pbs", d.Cfg.Name, rp.Name)
					bs, t, err := tool.WritePartialBitstream(ctx, name, pb, rp.Resources, opt.Compress)
					if err != nil {
						return nil, 0, err
					}
					return bs, t, nil
				},
				func(bs *bitstream.Bitstream, t vivado.Minutes) {
					partials[i] = bs
					partialT[i] = t
				})
		}
	}

	if err := execGraph(ctx, g, tool, opt, res); err != nil {
		return nil, err
	}
	// A synthesis that failed or never ran (Collect policy) left its
	// slot empty and is absent from SynthRuns.
	if staticCk != nil {
		res.SynthRuns["static"] = staticCk.Runtime
	}
	for i, ck := range rpCks {
		if ck != nil {
			res.SynthRuns[d.RPs[i].Name] = ck.Runtime
		}
	}

	// --- Wall-time aggregation: the analytic model of the paper,
	// computed in deterministic order from the recorded job times. A
	// Partial result aggregates whatever completed — failed groups are
	// simply absent. ---
	switch mode {
	case modePRESP:
		// All syntheses run in parallel, one tool instance each.
		runs := make([]vivado.Minutes, 0, len(res.SynthRuns))
		for _, t := range res.SynthRuns {
			runs = append(runs, t)
		}
		res.SynthWall = tool.Model().ConcurrentWall(1+len(d.RPs), runs...)
	case modeStandardDFX:
		// Sequential synthesis in one instance: times add up (in sorted
		// run order, so the float sum is reproducible).
		for _, n := range report.SortedKeys(res.SynthRuns) {
			res.SynthWall += res.SynthRuns[n]
		}
	}
	if res.Strategy.Kind != core.Serial {
		for _, cr := range ctxResults {
			if cr == nil {
				continue // group failed or was cancelled (Collect policy)
			}
			run := GroupRun{Partitions: cr.Group, Runtime: tool.Model().ConcurrentWall(res.Strategy.Tau, cr.Runtime)}
			res.Groups = append(res.Groups, run)
			if run.Runtime > res.MaxOmega {
				res.MaxOmega = run.Runtime
			}
		}
		res.PRWall = res.TStatic + res.MaxOmega
	}
	if !opt.SkipBitstreams {
		var maxPartial vivado.Minutes
		for _, t := range partialT {
			if t > maxPartial {
				maxPartial = t
			}
		}
		for _, bs := range partials {
			if bs != nil {
				res.PartialBitstreams = append(res.PartialBitstreams, bs)
			}
		}
		sort.Slice(res.PartialBitstreams, func(i, j int) bool {
			return res.PartialBitstreams[i].Name < res.PartialBitstreams[j].Name
		})
		// Partial bitstream writes run in parallel with each other.
		res.BitgenWall = fullT + maxPartial
	}
	res.Total = res.SynthWall + res.PRWall
	return res, nil
}

// cacheCounts converts a tool's cache counters for JobStats.
func cacheCounts(tool *vivado.Tool) (hits, misses int) {
	h, m := tool.CacheStats()
	return int(h), int(m)
}

// BuildStaticTop assembles the static-part hierarchy: the static tile
// modules plus an auto-generated black-box wrapper standing in for every
// reconfigurable partition (the synthesis-time replacement Section IV
// describes).
func BuildStaticTop(d *socgen.Design) *rtl.Module {
	top := &rtl.Module{Name: d.Cfg.Name + "_static"}
	top.AddPort("clk", rtl.In, 1, rtl.ClockPort)
	top.AddPort("rstn", rtl.In, 1, rtl.ResetPort)
	for _, m := range d.StaticModules {
		top.AddChild(m.Name, m)
	}
	for _, rp := range d.RPs {
		var bb *rtl.Module
		if rp.Content != nil {
			bb = rp.Content.CloneAsBlackBox()
		} else {
			bb = &rtl.Module{Name: rp.Name + "_bb", BlackBox: true}
		}
		top.AddChild(rp.Name, bb)
	}
	return top
}

// FloorplanDesign floorplans all partitions of d with the model's slack.
func FloorplanDesign(d *socgen.Design, model *vivado.CostModel) (*floorplan.Plan, error) {
	if model == nil {
		model = vivado.DefaultCostModel()
	}
	reqs := make([]floorplan.Request, 0, len(d.RPs))
	for _, rp := range d.RPs {
		reqs = append(reqs, floorplan.Request{Name: rp.Name, Need: rp.Resources})
	}
	return floorplan.Floorplan(d.Dev, reqs, floorplan.Options{
		Slack:      model.PblockSlack,
		StaticNeed: d.StaticResources,
	})
}
