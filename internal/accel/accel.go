// Package accel provides the loosely-coupled accelerator library of the
// PR-ESP platform: functional kernel implementations (they compute real
// results, validated against golden references in tests), resource
// profiles matching the paper's measurements (Table II), and latency
// models used by the runtime simulation.
//
// Accelerators in ESP are loosely coupled: they sit in their own tile,
// access memory through DMA over the NoC, are configured through
// memory-mapped registers and raise an interrupt on completion. The
// Kernel interface mirrors that contract.
package accel

import (
	"fmt"
	"sort"
	"sync"

	"presp/internal/fpga"
)

// Kernel is the functional model of an accelerator: given an input
// workload it produces output data and reports the work performed (used
// by the latency model).
type Kernel interface {
	// Name returns the accelerator name (unique in the registry).
	Name() string
	// Run executes the kernel on the input tensors and returns outputs.
	Run(in [][]float64) (out [][]float64, err error)
}

// Descriptor bundles everything the platform knows about an accelerator
// type: its functional kernel, its resource profile and its timing model.
type Descriptor struct {
	// Name is the accelerator type name (e.g. "conv2d").
	Name string
	// Kernel is the functional model; may be nil for third-party black
	// boxes that are integrated structurally only.
	Kernel Kernel
	// Resources is the measured post-synthesis utilization on the VC707
	// (the paper profiles each accelerator in a 2x2 SoC, Table II/Fig 3).
	Resources fpga.Resources
	// CyclesPerInvocation returns the execution latency in accelerator
	// clock cycles for a workload of n input items.
	CyclesPerInvocation func(n int) int64
	// ActivePowerW is the dynamic power draw while executing, in Watts.
	ActivePowerW float64
}

// Validate checks descriptor invariants.
func (d *Descriptor) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("accel: descriptor with empty name")
	}
	if d.Resources[fpga.LUT] <= 0 {
		return fmt.Errorf("accel: %s has non-positive LUT count", d.Name)
	}
	if d.CyclesPerInvocation == nil {
		return fmt.Errorf("accel: %s has no latency model", d.Name)
	}
	if d.ActivePowerW <= 0 {
		return fmt.Errorf("accel: %s has non-positive active power", d.Name)
	}
	return nil
}

// Registry holds accelerator descriptors by name. It is safe for
// concurrent use.
type Registry struct {
	mu    sync.RWMutex
	descs map[string]*Descriptor
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{descs: make(map[string]*Descriptor)}
}

// Register adds a descriptor after validating it; duplicates are errors.
func (r *Registry) Register(d *Descriptor) error {
	if err := d.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.descs[d.Name]; dup {
		return fmt.Errorf("accel: duplicate descriptor %q", d.Name)
	}
	r.descs[d.Name] = d
	return nil
}

// Lookup fetches a descriptor by name.
func (r *Registry) Lookup(name string) (*Descriptor, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.descs[name]
	if !ok {
		return nil, fmt.Errorf("accel: unknown accelerator %q", name)
	}
	return d, nil
}

// Names lists registered accelerator names sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.descs))
	for n := range r.descs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Default returns a registry pre-populated with the characterization
// accelerators used in Section IV of the paper: MAC, Conv2d, GEMM, FFT
// and Sort. LUT counts follow Table II; FF/BRAM/DSP are derived with the
// typical ESP accelerator ratios (FF ≈ 1.1x LUT, BRAM/DSP per datapath).
func Default() *Registry {
	r := NewRegistry()
	mustRegister(r, &Descriptor{
		Name:      "mac",
		Kernel:    MACKernel{},
		Resources: fpga.NewResources(2450, 2700, 4, 8),
		CyclesPerInvocation: func(n int) int64 {
			return 64 + int64(n) // fully pipelined MAC: one item/cycle
		},
		ActivePowerW: 0.11,
	})
	mustRegister(r, &Descriptor{
		Name:      "conv2d",
		Kernel:    Conv2DKernel{K: 3},
		Resources: fpga.NewResources(36741, 40415, 96, 164),
		CyclesPerInvocation: func(n int) int64 {
			return 512 + 9*int64(n)/4 // 3x3 window, 4-wide datapath
		},
		ActivePowerW: 0.95,
	})
	mustRegister(r, &Descriptor{
		Name:      "gemm",
		Kernel:    GEMMKernel{},
		Resources: fpga.NewResources(30617, 33678, 80, 128),
		CyclesPerInvocation: func(n int) int64 {
			return 512 + int64(n)/2
		},
		ActivePowerW: 0.88,
	})
	mustRegister(r, &Descriptor{
		Name:      "fft",
		Kernel:    FFTKernel{},
		Resources: fpga.NewResources(33690, 37059, 72, 144),
		CyclesPerInvocation: func(n int) int64 {
			c := int64(512)
			for s := 1; s < n; s *= 2 { // log2(n) stages, n/2 butterflies
				c += int64(n / 2)
			}
			return c
		},
		ActivePowerW: 0.92,
	})
	mustRegister(r, &Descriptor{
		Name:      "sort",
		Kernel:    SortKernel{},
		Resources: fpga.NewResources(20468, 22514, 48, 0),
		CyclesPerInvocation: func(n int) int64 {
			c := int64(256)
			for s := 1; s < n; s *= 2 { // merge network passes
				c += int64(n)
			}
			return c
		},
		ActivePowerW: 0.63,
	})
	return r
}

// NVDLA returns a descriptor for the NVDLA deep-learning accelerator in
// its small configuration — the third-party open-source accelerator the
// ESP platform integrates (the paper cites it as an example of
// loosely-coupled third-party IP). It is integrated *structurally*: the
// flow places and implements it like any accelerator, but it ships no
// functional model here, so runtime invocation goes through its own
// software stack rather than the generic kernel interface.
func NVDLA() *Descriptor {
	return &Descriptor{
		Name: "nvdla",
		// nv_small on a Xilinx part: ~88k LUTs, heavy on DSP and BRAM.
		Resources: fpga.NewResources(88000, 102000, 166, 32),
		CyclesPerInvocation: func(n int) int64 {
			return 4096 + 2*int64(n) // MAC-array streaming estimate
		},
		ActivePowerW: 2.4,
	}
}

func mustRegister(r *Registry, d *Descriptor) {
	if err := r.Register(d); err != nil {
		panic(err)
	}
}
