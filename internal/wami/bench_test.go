package wami

import (
	"testing"

	"presp/internal/reconfig"
)

// The layer benchmarks of the WAMI runtime path at the 128-px frame
// size of the runtime evaluation: each accelerator kernel through the
// flat-tensor adapter the tiles run, frame synthesis, and whole 16-frame
// batches on each runtime SoC (one Lucas-Kanade iteration per frame, as
// in Fig 4). make bench-smoke records them in BENCH_wami.json. Like the
// runner, the kernel and frame benchmarks hand every output plane back
// to the free list, so an iteration pays what the runtime pays, not a
// fresh allocation per plane.

const benchEdge = EvalFrameEdge

var (
	benchSinkOut    [][]float64
	benchSinkImage  *Image
	benchSinkReport *RunReport
)

// benchKernelInputs runs one frame pair through the software pipeline
// and returns the input tensors each kernel sees in the runtime.
func benchKernelInputs(b *testing.B) map[int][][]float64 {
	b.Helper()
	src, err := NewFrameSource(benchEdge, EvalMotionX, EvalMotionY, EvalTargets)
	if err != nil {
		b.Fatal(err)
	}
	gray := func() *Image {
		r, g, bl := Debayer(src.Next())
		return Grayscale(r, g, bl)
	}
	tmpl, img := gray(), gray()
	gx, gy := Gradient(tmpl)
	sd := SteepestDescent(gx, gy)
	h := Hessian(sd)
	hinv, err := MatrixInvert(h)
	if err != nil {
		b.Fatal(err)
	}
	p := Affine{0, 0, 0, 0, 0.7, -0.4}
	warped := Warp(img, p)
	errImg := Subtract(warped, tmpl)
	sdu := SDUpdate(sd, errImg)
	dp := Mult(hinv, sdu)
	mosaic := src.Next()
	r, g, bl := Debayer(mosaic)

	planes := func(ims [6]*Image) [][]float64 {
		out := make([][]float64, 6)
		for k, im := range ims {
			out[k] = im.Pix
		}
		return out
	}
	return map[int][][]float64{
		KDebayer:         {mosaic.Pix},
		KGrayscale:       {r.Pix, g.Pix, bl.Pix},
		KGradient:        {tmpl.Pix},
		KWarpImg:         {img.Pix, p[:]},
		KSubtract:        {warped.Pix, tmpl.Pix},
		KSteepestDescent: {gx.Pix, gy.Pix},
		KHessian:         planes(sd),
		KSDUpdate:        append(planes(sd), errImg.Pix),
		KMatrixInvert:    {h[:]},
		KMult:            append([][]float64{hinv[:]}, planes(sdu)...),
		KReshapeAdd:      {p[:], dp[:]},
		KChangeDetection: {warped.Pix, tmpl.Pix, {25, 0.05}},
	}
}

func BenchmarkWAMIKernel(b *testing.B) {
	inputs := benchKernelInputs(b)
	run := func(name string, idx int, in [][]float64) {
		k := kernelFor(idx)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := k.Run(in)
				if err != nil {
					b.Fatal(err)
				}
				benchSinkOut = out
				for _, plane := range out {
					if len(plane) == benchEdge*benchEdge {
						releasePix(plane)
					}
				}
			}
		})
	}
	for idx := 1; idx <= NumKernels; idx++ {
		run(Names[idx], idx, inputs[idx])
	}
	// warp-img above warps by a sub-pixel shift on Warp's general path.
	// Inverse-compositional Lucas-Kanade starts from p = 0, so every
	// warp of the runtime evaluation's single iteration per frame takes
	// the zero-warp path instead.
	run(Names[KWarpImg]+"-zero", KWarpImg, [][]float64{inputs[KWarpImg][0], make([]float64, 6)})
}

func BenchmarkFrameSourceNext(b *testing.B) {
	src, err := NewFrameSource(benchEdge, EvalMotionX, EvalMotionY, EvalTargets)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSinkImage = src.Next()
		releasePix(benchSinkImage.Pix)
	}
}

func BenchmarkProcessFrames(b *testing.B) {
	const frames = 16
	for _, name := range RuntimeSoCNames() {
		b.Run(name, func(b *testing.B) {
			cfg, alloc, err := RuntimeSoC(name)
			if err != nil {
				b.Fatal(err)
			}
			runner, rt := boot(b, cfg, alloc, reconfig.DefaultConfig(), EvalLKIterations)
			batch := func() *RunReport {
				// Each batch is a fresh runner and frame stream on the
				// same runtime, whose tiles stay configured between
				// batches.
				r, err := NewRunner(rt, alloc, runner.cfg)
				if err != nil {
					b.Fatal(err)
				}
				src, err := NewFrameSource(benchEdge, EvalMotionX, EvalMotionY, EvalTargets)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := r.ProcessFrames(src, frames)
				if err != nil {
					b.Fatal(err)
				}
				return rep
			}
			// One warm-up batch brings the tiles to the state every
			// timed batch starts from.
			batch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSinkReport = batch()
			}
		})
	}
}
