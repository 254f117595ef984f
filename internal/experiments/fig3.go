package experiments

import (
	"context"
	"fmt"

	"presp/internal/fpga"
	"presp/internal/report"
	"presp/internal/sim"
	"presp/internal/socgen"
	"presp/internal/vivado"
	"presp/internal/wami"
)

// Fig3Kernel is the profile of one WAMI accelerator: the Fig 3
// annotations (LUT consumption and execution time) measured on the 2x2
// single-accelerator profiling SoC.
type Fig3Kernel struct {
	// Index is the Fig 3 kernel number.
	Index int
	// Name is the accelerator name.
	Name string
	// LUTs is the post-synthesis utilization.
	LUTs int
	// ExecMS is the execution time for one 128x128-pixel invocation at
	// the 78 MHz SoC clock, in milliseconds.
	ExecMS float64
	// Deps lists the upstream kernels in the dataflow.
	Deps []int
	// PerIteration marks the Lucas-Kanade loop kernels.
	PerIteration bool
}

// Fig3Result reproduces the WAMI dataflow profile of Fig 3.
type Fig3Result struct {
	Kernels []Fig3Kernel
	// FramePixels is the profiling workload size.
	FramePixels int
}

// Fig3FrameEdge is the profiling frame edge length.
const Fig3FrameEdge = 128

// Fig3 profiles every WAMI kernel: synthesis on the profiling SoC for
// LUTs, the latency model at 78 MHz for execution time, and the
// dataflow graph for the edges.
func Fig3() (*Fig3Result, error) {
	reg, err := registry()
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{FramePixels: Fig3FrameEdge * Fig3FrameEdge}
	for idx := 1; idx <= wami.NumKernels; idx++ {
		name := wami.Names[idx]
		cfg := socgen.Profiling2x2(name)
		d, err := socgen.Elaborate(cfg, reg)
		if err != nil {
			return nil, err
		}
		tool, err := vivado.New(d.Dev, nil)
		if err != nil {
			return nil, err
		}
		ck, err := tool.Synthesize(context.Background(), "", d.RPs[0].Content, true)
		if err != nil {
			return nil, fmt.Errorf("experiments: profiling %s: %w", name, err)
		}
		desc, err := reg.Lookup(name)
		if err != nil {
			return nil, err
		}
		cycles := desc.CyclesPerInvocation(res.FramePixels)
		exec := sim.Clock(cycles, cfg.FreqHz)
		node, err := wami.NodeFor(idx)
		if err != nil {
			return nil, err
		}
		res.Kernels = append(res.Kernels, Fig3Kernel{
			Index:        idx,
			Name:         name,
			LUTs:         ck.Resources[fpga.LUT],
			ExecMS:       exec.Seconds() * 1000,
			Deps:         node.Deps,
			PerIteration: node.PerIteration,
		})
	}
	return res, nil
}

// Kernel returns the profile of kernel idx.
func (r *Fig3Result) Kernel(idx int) (*Fig3Kernel, error) {
	for i := range r.Kernels {
		if r.Kernels[i].Index == idx {
			return &r.Kernels[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: Fig 3 has no kernel %d", idx)
}

// Render builds the Fig 3 profile table.
func (r *Fig3Result) Render() *report.Table {
	t := report.New(
		fmt.Sprintf("Fig 3 — WAMI-App dataflow profile (%dx%d frames @ 78 MHz)", Fig3FrameEdge, Fig3FrameEdge),
		"#", "kernel", "LUTs", "exec (ms)", "deps", "LK-loop")
	for _, k := range r.Kernels {
		loop := ""
		if k.PerIteration {
			loop = "yes"
		}
		t.AddRow(k.Index, k.Name, k.LUTs, fmt.Sprintf("%.2f", k.ExecMS), fmt.Sprintf("%v", k.Deps), loop)
	}
	return t
}
