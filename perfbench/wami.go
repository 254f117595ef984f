package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"presp/internal/accel"
	"presp/internal/bitstream"
	"presp/internal/flow"
	"presp/internal/noc"
	"presp/internal/obs"
	"presp/internal/reconfig"
	"presp/internal/sim"
	"presp/internal/socgen"
	"presp/internal/wami"
)

// runtime-wami: set-up elaborates and floorplans SoC_X/Y/Z, generates
// and verifies their runtime bitstreams and registers them with one
// reconfiguration manager per SoC. One client then runs WAMI frame
// batches (wami.Runner.ProcessFrames, 128-px frames) on a seeded
// rotation of SoCs and scenes. It loads the reconfiguration manager,
// the sim engine, the NoC and the accelerator kernels, and bypasses
// the flow engine, vivado and bitstream synthesis except in set-up.

const (
	wamiFrames    = 16  // frames per op; the first only initialises state
	wamiFrameEdge = 128 // pixels
)

// scene is one synthetic frame stream: per-frame motion and target count.
type scene struct {
	dx, dy  float64
	targets int
}

var wamiScenes = []scene{{0.7, -0.4, 3}, {-0.5, 0.6, 2}, {0.3, 0.9, 4}}

type wamiSoC struct {
	name  string
	rt    *reconfig.Runtime
	alloc wami.Allocation
	stats reconfig.Stats // at the end of set-up
	net   noc.Stats
	dma   noc.Stats
}

type runtimeWAMI struct {
	e    *env
	socs []*wamiSoC

	// Host-time tallies; the single client and the kernels it runs share
	// one goroutine.
	batchNS, kernelNS, registerNS int64
	kernelCalls, frames           int
	bits                          layerTally
}

// timedKernel measures every call into an accelerator kernel. Traced
// runs wrap each registered Descriptor.Kernel in one.
type timedKernel struct {
	inner accel.Kernel
	w     *runtimeWAMI
}

func (k timedKernel) Name() string { return k.inner.Name() }

func (k timedKernel) Run(in [][]float64) ([][]float64, error) {
	end := k.w.e.span("accel.kernel", benchLane(0))
	t0 := time.Now()
	out, err := k.inner.Run(in)
	k.w.kernelNS += time.Since(t0).Nanoseconds()
	k.w.kernelCalls++
	end()
	return out, err
}

func setupRuntimeWAMI(e *env) (instance, error) {
	w := &runtimeWAMI{e: e}
	reg, err := wami.Registry()
	if err != nil {
		return nil, err
	}
	if e.obs != nil {
		for _, name := range reg.Names() {
			d, err := reg.Lookup(name)
			if err != nil {
				return nil, err
			}
			d.Kernel = timedKernel{inner: d.Kernel, w: w}
		}
	}
	for _, name := range wami.RuntimeSoCNames() {
		s, err := w.bootSoC(name, reg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		w.socs = append(w.socs, s)
	}
	// One batch per SoC brings every tile to the state each later batch
	// starts from, so all timed batches of a (SoC, scene) pair match.
	for _, s := range w.socs {
		if _, err := w.batch(s, wamiScenes[0]); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", s.name, err)
		}
		s.stats = s.rt.Stats()
		s.net = s.rt.Network().Stats()
		s.dma = s.rt.Network().PlaneStats(noc.PlaneDMA)
	}
	w.batchNS, w.kernelNS, w.kernelCalls, w.frames = 0, 0, 0, 0
	return w, nil
}

// bootSoC elaborates and floorplans one runtime SoC, generates and
// verifies its partial bitstreams and registers them with a fresh
// reconfiguration manager.
func (w *runtimeWAMI) bootSoC(name string, reg *accel.Registry) (*wamiSoC, error) {
	cfg, alloc, err := wami.RuntimeSoC(name)
	if err != nil {
		return nil, err
	}
	d, err := socgen.Elaborate(cfg, reg)
	if err != nil {
		return nil, err
	}
	plan, err := flow.FloorplanDesign(d, nil)
	if err != nil {
		return nil, err
	}
	byTile := make(map[string][]string, len(alloc))
	for tile, idxs := range alloc {
		for _, idx := range idxs {
			byTile[tile] = append(byTile[tile], wami.Names[idx])
		}
	}
	bss, err := flow.GenerateRuntimeBitstreams(context.Background(), d, plan, byTile, reg, true, flowWorkers)
	if err != nil {
		return nil, err
	}
	rt, err := reconfig.New(sim.NewEngine(), d, reg, plan, reconfig.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// Register in sorted order so a failure is always the same one.
	tiles := make([]string, 0, len(bss))
	for tile := range bss {
		tiles = append(tiles, tile)
	}
	sort.Strings(tiles)
	for _, tile := range tiles {
		accs := make([]string, 0, len(bss[tile]))
		for acc := range bss[tile] {
			accs = append(accs, acc)
		}
		sort.Strings(accs)
		images := make([]*bitstream.Bitstream, 0, len(accs))
		for _, acc := range accs {
			images = append(images, bss[tile][acc])
		}
		if err := w.bits.verify(w.e, benchLane(0), images); err != nil {
			return nil, err
		}
		end := w.e.span("reconfig.register", benchLane(0))
		t0 := time.Now()
		for _, acc := range accs {
			if err := rt.RegisterBitstream(tile, acc, bss[tile][acc]); err != nil {
				end()
				return nil, err
			}
		}
		w.registerNS += time.Since(t0).Nanoseconds()
		end()
	}
	return &wamiSoC{name: name, rt: rt, alloc: alloc}, nil
}

// batch runs one frame batch of sc on SoC s.
func (w *runtimeWAMI) batch(s *wamiSoC, sc scene) ([]frameRef, error) {
	pcfg := wami.DefaultPipelineConfig()
	pcfg.LKIterations = 1 // the runtime evaluation setting
	runner, err := wami.NewRunner(s.rt, s.alloc, pcfg)
	if err != nil {
		return nil, err
	}
	src, err := wami.NewFrameSource(wamiFrameEdge, sc.dx, sc.dy, sc.targets)
	if err != nil {
		return nil, err
	}
	end := w.e.span("reconfig.batch", benchLane(0))
	t0 := time.Now()
	rep, err := runner.ProcessFrames(src, wamiFrames)
	w.batchNS += time.Since(t0).Nanoseconds()
	end()
	if err != nil {
		return nil, err
	}
	w.frames += len(rep.Frames)
	out := make([]frameRef, len(rep.Frames))
	for i, f := range rep.Frames {
		out[i] = frameRef{
			TimeNS:     f.Time.Nanoseconds(),
			EnergyJ:    f.Energy,
			Reconfigs:  f.Reconfigurations,
			Detections: f.Detections,
			LKIters:    f.LKIters,
			MotionErr:  f.MotionErr,
		}
	}
	return out, nil
}

// at maps stream index i to a (SoC, scene) pair: every block of nine ops
// visits each pair once, in a seeded order.
func (w *runtimeWAMI) at(i int) (*wamiSoC, int) {
	n := len(w.socs) * len(wamiScenes)
	order := rand.New(rand.NewSource(w.e.seed*31_337 + int64(i/n))).Perm(n)
	k := order[i%n]
	return w.socs[k/len(wamiScenes)], k % len(wamiScenes)
}

func (w *runtimeWAMI) op(_, i int) []outcome {
	s, sc := w.at(i)
	key := fmt.Sprintf("%s#%d", s.name, sc)
	t0 := time.Now()
	frames, err := w.batch(s, wamiScenes[sc])
	ms := msSince(t0)
	if err != nil {
		return []outcome{{ms: ms, err: fmt.Errorf("%s: %w", key, err)}}
	}
	if err := sameFrames(frames, w.e.golden.WAMI[key]); err != nil {
		return []outcome{{ms: ms, err: fmt.Errorf("%s: %w", key, err)}}
	}
	return []outcome{{ms: ms, digest: fmt.Sprintf("%s=%v", key, frames)}}
}

func (w *runtimeWAMI) layers(_ []obs.Event, set func(string, float64)) {
	if w.frames > 0 {
		set("reconfig.self_ms_per_frame", float64(w.batchNS-w.kernelNS)/1e6/float64(w.frames))
		set("accel.kernel_ms_per_frame", float64(w.kernelNS)/1e6/float64(w.frames))
	}
	set("accel.calls", float64(w.kernelCalls))
	set("reconfig.register_ms", float64(w.registerNS)/1e6)
	var st reconfig.Stats
	var packets, flits, dma int64
	for _, s := range w.socs {
		now := s.rt.Stats()
		st.Reconfigurations += now.Reconfigurations - s.stats.Reconfigurations
		st.Invocations += now.Invocations - s.stats.Invocations
		st.CPUFallbacks += now.CPUFallbacks - s.stats.CPUFallbacks
		st.BytesConfigured += now.BytesConfigured - s.stats.BytesConfigured
		net := s.rt.Network().Stats()
		packets += net.Packets - s.net.Packets
		flits += net.TotalFlits - s.net.TotalFlits
		dma += s.rt.Network().PlaneStats(noc.PlaneDMA).TotalFlits - s.dma.TotalFlits
	}
	set("reconfig.reconfigs", float64(st.Reconfigurations))
	set("reconfig.invocations", float64(st.Invocations))
	set("reconfig.cpu_fallbacks", float64(st.CPUFallbacks))
	set("reconfig.bytes_configured", float64(st.BytesConfigured))
	set("noc.packets", float64(packets))
	set("noc.flits_total", float64(flits))
	set("noc.flits_dma", float64(dma))
	w.bits.setBitstream(set)
}

func (w *runtimeWAMI) close() error { return nil }
