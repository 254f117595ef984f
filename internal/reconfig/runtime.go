// Package reconfig implements the PR-ESP software stack of Section V on
// top of the simulated hardware: a runtime manager that schedules and
// synchronizes reconfiguration requests through a workqueue, swaps
// accelerator drivers during reconfiguration, drives the decoupler and
// the DFX controller / ICAP in the auxiliary tile, and exposes the
// user-space API applications invoke accelerators through.
//
// The manager runs against the discrete-event engine: every hardware
// action (DMA over the NoC, ICAP programming, interrupts) advances
// virtual time, and the power meter integrates per-component power so
// the Fig 4 energy-per-frame evaluation falls out of the same machinery.
package reconfig

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"presp/internal/accel"
	"presp/internal/bitstream"
	"presp/internal/faultinject"
	"presp/internal/floorplan"
	"presp/internal/fpga"
	"presp/internal/noc"
	"presp/internal/obs"
	"presp/internal/report"
	"presp/internal/sim"
	"presp/internal/socgen"
	"presp/internal/tile"
)

// The runtime's fixed hardware parameters: the board, the processor
// and the power rails the paper's Section V manager runs on.
const (
	// cpuSlowdown is the software-fallback factor: a kernel without an
	// allocated accelerator runs on the processor this many times slower
	// than its accelerator latency model.
	cpuSlowdown = 150
	// driverSwapDelay is the kernel-side cost of unregistering the old
	// accelerator driver and registering the new one.
	driverSwapDelay = 120 * time.Microsecond
	// decoupleDelay is the decoupler engage/disengage latency.
	decoupleDelay = 2 * time.Microsecond
	// idlePowerFraction is the clock-tree power of a configured but idle
	// accelerator, as a fraction of its active power.
	idlePowerFraction = 0.22
	// reconfigPowerW is the board power drawn while the ICAP programs.
	reconfigPowerW = 0.8
	// cpuPowerW is the processor's active power when running fallback
	// kernels.
	cpuPowerW = 0.15
	// staticPowerW is the always-on baseline power of the SoC.
	staticPowerW = 0.1
	// contentionPowerW scales the superlinear NoC/memory power term:
	// with k accelerators active concurrently the uncore draws
	// contentionPowerW · k·(k-1) (bandwidth contention burns energy in
	// retries and stalls; this is what makes wide SoCs fast but
	// inefficient, the Fig 4 trade-off).
	contentionPowerW = 2.0
	// perTilePowerW is the fixed clock-spine and socket power each
	// reconfigurable tile draws while it holds a configured module —
	// linear in the tile count, on top of the area-driven leakage.
	perTilePowerW = 3.0
	// leakagePerKLUTW and leakageExponent form the configured-fabric
	// leakage model: the SoC draws
	//
	//	P = leakagePerKLUTW · (Σ configured pblock area in kLUT)^leakageExponent
	//
	// while modules are loaded. The superlinear exponent models the
	// thermal feedback of powering more fabric (leakage grows with die
	// temperature, which grows with powered area); it is what makes
	// SoCs with fewer, smaller reconfigurable regions more
	// energy-efficient per frame even when they run longer — the Fig 4
	// trade-off.
	leakagePerKLUTW = 0.0025
	leakageExponent = 1.75
	// retryBackoff is the base delay before re-attempting a failed
	// reconfiguration: attempt k waits k·retryBackoff. Linear backoff
	// in virtual time keeps the schedule deterministic.
	retryBackoff = 20 * time.Microsecond
)

// Config tunes the runtime.
type Config struct {
	// ICAPEffectiveBps is the end-to-end configuration throughput of the
	// DFXC path (bitstream DMA over the NoC, AXI adapters, ICAP). The
	// raw ICAPE2 primitive sustains 400 MB/s, but the paper's path
	// fetches beat-by-beat through the auxiliary tile's adapters; zero
	// selects the device's raw ICAP bandwidth.
	ICAPEffectiveBps float64
	// UnsafeImmediateSwap disables the manager's drain-before-swap
	// discipline: reconfiguration requests no longer wait for the
	// accelerator in the tile to finish executing. This exists only for
	// the ablation that demonstrates why Section V forces the calling
	// thread to wait — in-flight invocations on the tile are aborted
	// with an error when the module is swapped under them.
	UnsafeImmediateSwap bool
	// SharedDMAPlane routes the DFXC's bitstream fetches over the memory
	// response plane instead of the dedicated DMA plane, making
	// reconfiguration traffic contend with accelerator DMA (the NoC
	// plane-count ablation).
	SharedDMAPlane bool
	// MaxReconfigRetries bounds how many times the manager re-attempts
	// a partial reconfiguration whose hardware sequence failed
	// (transient ICAP or DMA faults) before reporting the error to the
	// caller. Zero disables retries.
	MaxReconfigRetries int
	// TileDeadThreshold declares a tile dead after this many
	// consecutive reconfiguration failures, each having exhausted its
	// retries. Invocations on a dead tile gracefully degrade to the
	// CPU fallback; a successful reconfiguration resets the count.
	// Zero never declares tiles dead.
	TileDeadThreshold int
	// ScrubInterval, when positive, arms the configuration-memory
	// readback scrubber: every interval of virtual time the runtime
	// CRC-compares each tile's resident configuration image against its
	// golden bitstream and repairs mismatches by re-writing the golden
	// partial bitstream through the ordinary ICAP path (decouple, DMA
	// fetch, program, recouple), arbitrated against demand
	// reconfigurations by the single PRC. Zero disables scrubbing:
	// upsets then accumulate until a demand swap happens to reprogram
	// the tile.
	ScrubInterval sim.Time
	// SEUCheckInterval is the virtual-time period of the per-tile
	// config-memory sample ticks that drive seu fault-plan rules (each
	// tick is one seu occurrence per tile). Zero derives it
	// from ScrubInterval/4, falling back to 50µs — scrubbing coarser
	// than the upset process keeps multi-bit accumulation observable.
	SEUCheckInterval sim.Time
	// FaultPlan, when non-nil, arms the deterministic fault injector
	// against this runtime's substrate: NoC transfers (sites: plane
	// and endpoint tile names), decoupler engage/disengage (site: tile
	// name), ICAP programming and fetch CRC corruption (sites: tile
	// and accelerator names), kernel execution (sites: accelerator
	// and tile names) and configuration-memory SEUs (sites: tile and
	// resident accelerator names; seu rules are sampled every
	// SEUCheckInterval of virtual time and count per tile, so the upset
	// schedule is invariant under flow worker count).
	FaultPlan *faultinject.Plan
	// Observer, when non-nil, attaches the observability layer: the
	// runtime records every reconfiguration as a Chrome-trace span in
	// virtual time (one lane per tile, with nested fetch/ICAP
	// sub-spans), retry and dead-tile instants, power-rail counter
	// samples and per-plane NoC traffic counters. A nil Observer
	// disables all observation at no cost, and observation never
	// changes simulation results. Trace timestamps are virtual sim.Time
	// microseconds — do not share one tracer with a wall-clock flow
	// run, the time bases differ.
	Observer *obs.Observer
}

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config {
	return Config{
		ICAPEffectiveBps:   45e6,
		MaxReconfigRetries: 2,
		TileDeadThreshold:  3,
	}
}

// tileState tracks the runtime condition of one reconfigurable tile.
type tileState struct {
	t         *tile.Tile
	pos       noc.Coord
	pblock    fpga.Pblock
	loaded    string // configured accelerator ("" = empty)
	driver    string // bound driver ("" = none)
	pending   string // accelerator a queued/in-flight swap will install
	busy      bool   // accelerator executing
	reconfig  bool   // reconfiguration in progress
	dead      bool   // declared dead after repeated reconfig failures
	failures  int    // consecutive exhausted-retry reconfig failures
	waiters   []func()
	bitstream map[string]*bitstream.Bitstream
	// mem is the tile's resident configuration image (nil until the
	// first program); repairPending and detectedAt track an upset the
	// scrubber has detected but not yet repaired.
	mem           *configMem
	repairPending bool
	detectedAt    sim.Time
}

// programConfigMem records a successful ICAP program in the tile's
// config-memory model; programming rewrites the covered frames, so it
// clears any accumulated upsets.
func (ts *tileState) programConfigMem(bs *bitstream.Bitstream) {
	if ts.mem == nil {
		ts.mem = newConfigMem()
	}
	ts.mem.program(bs)
}

// TimelineEvent records one completed partial reconfiguration for
// post-run inspection (what presp-sim prints as the swap timeline).
type TimelineEvent struct {
	// Start and End bound the reconfiguration in virtual time.
	Start, End sim.Time
	// Tile and Accel identify the swap.
	Tile, Accel string
	// Bytes is the configured bitstream size (zero for failures).
	Bytes int
	// Attempts is the number of hardware attempts the event consumed
	// (1 = first try succeeded; retries extend the same event).
	Attempts int
	// Failed marks a reconfiguration that exhausted its retries; Err
	// holds the final error text. Failures are recorded in the
	// timeline precisely so they are observable after the fact.
	Failed bool
	Err    string
	// Repair marks a scrubber-initiated rewrite of the resident module
	// after a detected configuration-memory upset.
	Repair bool
}

// Stats aggregates runtime counters.
type Stats struct {
	// Reconfigurations is the completed partial reconfiguration count.
	Reconfigurations int
	// ReconfigTime is the cumulative reconfiguration latency.
	ReconfigTime sim.Time
	// Invocations counts accelerator runs; CPUFallbacks counts kernels
	// executed in software.
	Invocations  int
	CPUFallbacks int
	// BytesConfigured is the total bitstream bytes pushed through ICAP.
	BytesConfigured int64
	// FailedReconfigs counts reconfigurations that failed after
	// exhausting their retries.
	FailedReconfigs int
	// Retries counts re-attempted reconfiguration hardware sequences.
	Retries int
	// PrefetchErrors counts speculative loads that failed; no caller
	// waits on a prefetch, so this counter is the only place the
	// errors surface.
	PrefetchErrors int
	// DeadTiles counts tiles declared dead (their kernels degrade to
	// the CPU fallback).
	DeadTiles int
	// Scrub aggregates the configuration-memory health counters.
	Scrub ScrubStats
}

// Runtime is the reconfiguration manager bound to one simulated SoC.
type Runtime struct {
	eng    *sim.Engine
	net    *noc.Network
	meter  *sim.PowerMeter
	design *socgen.Design
	reg    *accel.Registry
	cfg    Config

	memPos, auxPos, cpuPos noc.Coord
	tiles                  map[string]*tileState
	// tileNames holds the reconfigurable tile names sorted: every loop
	// that folds floats across tiles iterates this slice, never the
	// map, so energy totals do not depend on map iteration order.
	tileNames []string
	// posName labels mesh coordinates with tile names for fault sites.
	posName map[noc.Coord]string
	// inj is the armed fault injector (nil when no FaultPlan is set).
	inj *faultinject.Injector

	// Config-memory health subsystem (see confmem.go). hasSEU records
	// that the plan holds seu rules, which inj checks per tile; the tick
	// chain is parked whenever it would be the only pending event, so
	// Engine.Run(0) still drains.
	healthArmed     bool
	healthScheduled bool
	healthTickNo    int64
	seuTick         sim.Time
	scrubEvery      int
	hasSEU          bool
	// appInFlight counts outstanding application requests (demand
	// reconfigs, invocations, CPU runs). The health tick chain runs
	// only while it is positive — scrub repairs deliberately do not
	// count, so a storm cannot sustain itself on its own ICAP traffic.
	appInFlight int

	// The single DFXC serializes reconfigurations; queued requests wait
	// in the kernel workqueue.
	prcBusy   bool
	workqueue []*request

	cpuBusy    bool
	cpuWaiters []func()

	activeAccels int
	stats        Stats
	timeline     []TimelineEvent

	// Observability, resolved once in New. All fields are nil-safe, so
	// without an observer every record call is a no-op; arg-map
	// allocations are additionally guarded on tr != nil.
	tr         *obs.Tracer
	mReconfigs *obs.Counter
	mRetries   *obs.Counter
	mFailures  *obs.Counter
	mDeadTiles *obs.Counter
	mBytes     *obs.Counter
	// Scrubber instruments: counters mirror Stats.Scrub, and the MTTR
	// histogram observes detection-to-repair latency in virtual µs.
	mScrubCycles        *obs.Counter
	mScrubUpsets        *obs.Counter
	mScrubDetected      *obs.Counter
	mScrubRepaired      *obs.Counter
	mScrubHealed        *obs.Counter
	mScrubUncorrectable *obs.Counter
	hScrubMTTR          *obs.Histogram
	// tileTID maps tile names to trace lanes (manager events go to
	// lane 0, tiles to 1..n in sorted-name order).
	tileTID map[string]int
}

type request struct {
	tileName string
	accName  string
	// repair marks a scrubber-initiated rewrite of the golden image the
	// tile already holds (demand swaps always change the module).
	repair bool
	done   func(error)
}

// New builds a runtime for design d with accelerator registry reg and
// floorplan plan (the pblocks size the partial bitstream path).
func New(eng *sim.Engine, d *socgen.Design, reg *accel.Registry, plan *floorplan.Plan, cfg Config) (*Runtime, error) {
	if eng == nil || d == nil || reg == nil || plan == nil {
		return nil, fmt.Errorf("reconfig: nil dependency")
	}
	net, err := noc.New(eng, noc.Config{Cols: d.Cfg.Cols, Rows: d.Cfg.Rows, FreqHz: d.Cfg.FreqHz})
	if err != nil {
		return nil, err
	}
	r := &Runtime{
		eng:     eng,
		net:     net,
		meter:   sim.NewPowerMeter(eng),
		design:  d,
		reg:     reg,
		cfg:     cfg,
		tiles:   make(map[string]*tileState),
		posName: make(map[noc.Coord]string),
	}
	if cfg.FaultPlan != nil {
		inj, err := faultinject.New(*cfg.FaultPlan)
		if err != nil {
			return nil, err
		}
		r.inj = inj
		net.SetFaultHook(&nocFaultAdapter{r: r})
	}
	if cfg.ScrubInterval < 0 {
		return nil, fmt.Errorf("reconfig: negative scrub interval %v", cfg.ScrubInterval)
	}
	if cfg.SEUCheckInterval < 0 {
		return nil, fmt.Errorf("reconfig: negative SEU check interval %v", cfg.SEUCheckInterval)
	}
	r.armHealth()
	var haveMem, haveAux, haveCPU bool
	for i := range d.Cfg.Tiles {
		t := &d.Cfg.Tiles[i]
		r.posName[t.Pos] = t.Name
		switch t.Kind {
		case tile.Mem:
			if !haveMem {
				r.memPos, haveMem = t.Pos, true
			}
		case tile.Aux:
			r.auxPos, haveAux = t.Pos, true
		case tile.CPU:
			r.cpuPos, haveCPU = t.Pos, true
		case tile.Reconf:
			rp, err := d.FindRP(t.Name)
			if err != nil {
				return nil, err
			}
			pb, ok := plan.Pblocks[rp.Name]
			if !ok {
				return nil, fmt.Errorf("reconfig: floorplan has no pblock for %s", rp.Name)
			}
			if t.ReconfCPU && !haveCPU {
				r.cpuPos, haveCPU = t.Pos, true
			}
			ts := &tileState{
				t: t, pos: t.Pos, pblock: pb,
				bitstream: make(map[string]*bitstream.Bitstream),
			}
			// The full bitstream configures each tile's initial
			// accelerator at boot, and the static device tree binds its
			// driver; only later swaps go through the manager.
			if t.AccelName != "" && !t.ReconfCPU {
				ts.loaded = t.AccelName
				ts.driver = t.AccelName
			}
			r.tiles[t.Name] = ts
		}
	}
	if !haveMem || !haveAux || !haveCPU {
		return nil, fmt.Errorf("reconfig: design %s lacks MEM/AUX/CPU tiles", d.Cfg.Name)
	}
	for n := range r.tiles {
		r.tileNames = append(r.tileNames, n)
	}
	sort.Strings(r.tileNames)
	// Resolve the observability instruments before the first power
	// write below, so even boot-time power samples land in the trace.
	mreg := cfg.Observer.Metrics()
	r.tr = cfg.Observer.Tracer()
	r.mReconfigs = mreg.Counter("reconfig_reconfigurations_total")
	r.mRetries = mreg.Counter("reconfig_retries_total")
	r.mFailures = mreg.Counter("reconfig_failures_total")
	r.mDeadTiles = mreg.Counter("reconfig_dead_tiles_total")
	r.mBytes = mreg.Counter("reconfig_bytes_total")
	r.mScrubCycles = mreg.Counter("scrub_cycles_total")
	r.mScrubUpsets = mreg.Counter("scrub_upsets_total")
	r.mScrubDetected = mreg.Counter("scrub_detected_total")
	r.mScrubRepaired = mreg.Counter("scrub_repaired_total")
	r.mScrubHealed = mreg.Counter("scrub_healed_total")
	r.mScrubUncorrectable = mreg.Counter("scrub_uncorrectable_total")
	r.hScrubMTTR = mreg.Histogram("scrub_mttr_usec", 10, 50, 100, 500, 1000, 5000, 10000, 100000, 1e6)
	net.SetObserver(cfg.Observer)
	if r.tr != nil {
		r.tr.SetProcessName("presp runtime (virtual time)")
		r.tr.SetThreadName(0, "manager")
		r.tileTID = make(map[string]int, len(r.tileNames))
		for i, n := range r.tileNames {
			r.tileTID[n] = i + 1
			r.tr.SetThreadName(i+1, "tile "+n)
		}
	}
	if err := r.meter.SetPower("static", staticPowerW); err != nil {
		return nil, err
	}
	for _, n := range r.tileNames {
		r.setTileIdlePower(r.tiles[n])
	}
	return r, nil
}

// trackApp marks one application request in flight for the health tick
// chain and returns a done callback that releases it (exactly once —
// re-entrant paths wrap the already-wrapped callback, and each layer
// balances its own increment).
func (r *Runtime) trackApp(done func(error)) func(error) {
	r.appInFlight++
	released := false
	return func(err error) {
		if !released {
			released = true
			r.appInFlight--
		}
		done(err)
	}
}

// trackAppInvoke is trackApp for the invocation callback signature.
func (r *Runtime) trackAppInvoke(done func(*InvokeResult, error)) func(*InvokeResult, error) {
	r.appInFlight++
	released := false
	return func(res *InvokeResult, err error) {
		if !released {
			released = true
			r.appInFlight--
		}
		done(res, err)
	}
}

// nocFaultAdapter translates NoC operations into fault-injector sites:
// the plane name plus the tile names at the endpoints, so plans can
// target "every DMA-plane packet" or "anything touching rt_2" alike.
type nocFaultAdapter struct{ r *Runtime }

func (a *nocFaultAdapter) TransferFault(p noc.Plane, src, dst noc.Coord) error {
	return a.r.inj.Check(faultinject.OpTransfer, p.String(), a.r.siteName(src), a.r.siteName(dst))
}

func (a *nocFaultAdapter) DecoupleFault(c noc.Coord) error {
	return a.r.inj.Check(faultinject.OpDecouple, a.r.siteName(c))
}

func (a *nocFaultAdapter) RecoupleFault(c noc.Coord) error {
	return a.r.inj.Check(faultinject.OpRecouple, a.r.siteName(c))
}

// siteName labels a mesh coordinate with its tile name, falling back
// to the coordinate string for unnamed positions.
func (r *Runtime) siteName(c noc.Coord) string {
	if n, ok := r.posName[c]; ok {
		return n
	}
	return c.String()
}

// FaultsInjected reports how many faults the armed injector has
// delivered so far, SEUs included (zero without a FaultPlan).
func (r *Runtime) FaultsInjected() int { return r.inj.Injected() }

// Engine exposes the simulation engine (for scheduling application work).
func (r *Runtime) Engine() *sim.Engine { return r.eng }

// Meter exposes the power meter.
func (r *Runtime) Meter() *sim.PowerMeter { return r.meter }

// Network exposes the NoC (for inspection in tests).
func (r *Runtime) Network() *noc.Network { return r.net }

// Stats returns a snapshot of the runtime counters.
func (r *Runtime) Stats() Stats { return r.stats }

// Timeline returns the completed reconfigurations in completion order.
func (r *Runtime) Timeline() []TimelineEvent {
	out := make([]TimelineEvent, len(r.timeline))
	copy(out, r.timeline)
	return out
}

// Tiles lists the reconfigurable tile names, sorted.
func (r *Runtime) Tiles() []string {
	out := make([]string, len(r.tileNames))
	copy(out, r.tileNames)
	return out
}

// Dead reports whether the manager has declared the tile dead after
// repeated reconfiguration failures.
func (r *Runtime) Dead(tileName string) (bool, error) {
	ts, err := r.tile(tileName)
	if err != nil {
		return false, err
	}
	return ts.dead, nil
}

// Loaded returns the accelerator currently configured in the tile.
func (r *Runtime) Loaded(tileName string) (string, error) {
	ts, err := r.tile(tileName)
	if err != nil {
		return "", err
	}
	return ts.loaded, nil
}

// Driver returns the driver currently bound to the tile.
func (r *Runtime) Driver(tileName string) (string, error) {
	ts, err := r.tile(tileName)
	if err != nil {
		return "", err
	}
	return ts.driver, nil
}

func (r *Runtime) tile(name string) (*tileState, error) {
	ts, ok := r.tiles[name]
	if !ok {
		return nil, fmt.Errorf("reconfig: no reconfigurable tile %q", name)
	}
	return ts, nil
}

// RegisterBitstream stages a partial bitstream for (tile, accelerator):
// the user-space loader mmaps it in DDR and the manager copies it into
// kernel memory, creating the reference between bitstream, physical
// address, target tile and driver (Section V). The copy is verified
// here, once; nothing outside the manager can reach it, so its bytes
// match its checksum for as long as it stays registered, whatever the
// caller later does to bs.
func (r *Runtime) RegisterBitstream(tileName, accName string, bs *bitstream.Bitstream) error {
	ts, err := r.tile(tileName)
	if err != nil {
		return err
	}
	if bs == nil || bs.Size() == 0 {
		return fmt.Errorf("reconfig: empty bitstream for %s/%s", tileName, accName)
	}
	if bs.Kind != bitstream.Partial {
		return fmt.Errorf("reconfig: %s/%s: full bitstreams cannot be loaded through the PRC", tileName, accName)
	}
	if _, err := r.reg.Lookup(accName); err != nil {
		return err
	}
	img := *bs
	img.Data = bytes.Clone(bs.Data)
	if err := img.Verify(); err != nil {
		return fmt.Errorf("reconfig: %s/%s: %w", tileName, accName, err)
	}
	ts.bitstream[accName] = &img
	// A tile booted with this accelerator got its frames from the full
	// bitstream; registering the matching partial image gives the
	// scrubber its golden reference, so install it as the resident
	// config memory now (later swaps install theirs on ICAP success).
	if ts.loaded == accName && ts.mem == nil {
		ts.programConfigMem(&img)
	}
	return nil
}

// RegisterBitstreams registers every image of bss, keyed by tile and
// accelerator name, in sorted (tile, accelerator) order, so the first
// failure it reports is always the same one.
func (r *Runtime) RegisterBitstreams(bss map[string]map[string]*bitstream.Bitstream) error {
	for _, tileName := range report.SortedKeys(bss) {
		m := bss[tileName]
		for _, acc := range report.SortedKeys(m) {
			if err := r.RegisterBitstream(tileName, acc, m[acc]); err != nil {
				return err
			}
		}
	}
	return nil
}

// RegisteredBitstreams lists accelerator names staged for a tile, in
// sorted order — the staging table is a map, and folding it unsorted
// would leak map iteration order into status output and tests.
func (r *Runtime) RegisteredBitstreams(tileName string) ([]string, error) {
	ts, err := r.tile(tileName)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(ts.bitstream))
	for n := range ts.bitstream {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}
