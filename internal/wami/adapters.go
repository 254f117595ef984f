package wami

import (
	"fmt"

	"presp/internal/accel"
)

// kernelFor returns the accel.Kernel adapter for kernel index idx. The
// adapters present the flat-tensor interface the accelerator sockets
// expose (images travel as row-major n×n slices over the DMA planes).
func kernelFor(idx int) accel.Kernel {
	return wamiKernel{idx: idx}
}

type wamiKernel struct {
	idx int
}

// Name implements accel.Kernel.
func (k wamiKernel) Name() string { return Names[k.idx] }

// Run implements accel.Kernel by dispatching to the functional kernels.
func (k wamiKernel) Run(in [][]float64) ([][]float64, error) {
	switch k.idx {
	case KDebayer:
		im, err := oneImage(k, in)
		if err != nil {
			return nil, err
		}
		r, g, b := Debayer(&im)
		return [][]float64{r.Pix, g.Pix, b.Pix}, nil

	case KGrayscale:
		if len(in) != 3 {
			return nil, fmt.Errorf("wami: grayscale wants r,g,b inputs, got %d", len(in))
		}
		r, err := imageFrom(in[0])
		if err != nil {
			return nil, err
		}
		g, err := imageFrom(in[1])
		if err != nil {
			return nil, err
		}
		b, err := imageFrom(in[2])
		if err != nil {
			return nil, err
		}
		if g.N != r.N || b.N != r.N {
			return nil, fmt.Errorf("wami: grayscale plane sizes differ")
		}
		return [][]float64{Grayscale(&r, &g, &b).Pix}, nil

	case KGradient:
		im, err := oneImage(k, in)
		if err != nil {
			return nil, err
		}
		gx, gy := Gradient(&im)
		return [][]float64{gx.Pix, gy.Pix}, nil

	case KWarpImg:
		if len(in) != 2 || len(in[1]) != 6 {
			return nil, fmt.Errorf("wami: warp-img wants image + 6 params")
		}
		im, err := imageFrom(in[0])
		if err != nil {
			return nil, err
		}
		var p Affine
		copy(p[:], in[1])
		return [][]float64{Warp(&im, p).Pix}, nil

	case KSubtract:
		if len(in) != 2 || len(in[0]) != len(in[1]) {
			return nil, fmt.Errorf("wami: subtract wants two equal images")
		}
		a, err := imageFrom(in[0])
		if err != nil {
			return nil, err
		}
		b, err := imageFrom(in[1])
		if err != nil {
			return nil, err
		}
		return [][]float64{Subtract(&a, &b).Pix}, nil

	case KSteepestDescent:
		if len(in) != 2 || len(in[0]) != len(in[1]) {
			return nil, fmt.Errorf("wami: steepest-descent wants gx, gy")
		}
		gx, err := imageFrom(in[0])
		if err != nil {
			return nil, err
		}
		gy, err := imageFrom(in[1])
		if err != nil {
			return nil, err
		}
		sd := SteepestDescent(&gx, &gy)
		out := make([][]float64, 6)
		for i := range sd {
			out[i] = sd[i].Pix
		}
		return out, nil

	case KHessian:
		var planes [6]Image
		sd, err := sixPlanes(k, in, &planes)
		if err != nil {
			return nil, err
		}
		h := Hessian(sd)
		return [][]float64{h[:]}, nil

	case KSDUpdate:
		if len(in) != 7 {
			return nil, fmt.Errorf("wami: sd-update wants 6 sd planes + error image, got %d", len(in))
		}
		var planes [6]Image
		sd, err := sixPlanes(k, in[:6], &planes)
		if err != nil {
			return nil, err
		}
		errImg, err := imageFrom(in[6])
		if err != nil {
			return nil, err
		}
		sdu := SDUpdate(sd, &errImg)
		out := make([][]float64, 6)
		for i := range sdu {
			out[i] = sdu[i].Pix
		}
		return out, nil

	case KMatrixInvert:
		if len(in) != 1 || len(in[0]) != 36 {
			return nil, fmt.Errorf("wami: matrix-invert wants one 6x6 matrix")
		}
		var m [36]float64
		copy(m[:], in[0])
		inv, err := MatrixInvert(m)
		if err != nil {
			return nil, err
		}
		return [][]float64{inv[:]}, nil

	case KMult:
		if len(in) != 7 || len(in[0]) != 36 {
			return nil, fmt.Errorf("wami: mult wants H⁻¹ + 6 sd-update planes")
		}
		var hinv [36]float64
		copy(hinv[:], in[0])
		var planes [6]Image
		sdu, err := sixPlanes(k, in[1:], &planes)
		if err != nil {
			return nil, err
		}
		dp := Mult(hinv, sdu)
		return [][]float64{dp[:]}, nil

	case KReshapeAdd:
		if len(in) != 2 || len(in[0]) != 6 || len(in[1]) != 6 {
			return nil, fmt.Errorf("wami: reshape-add wants p and Δp (6 each)")
		}
		var p, dp Affine
		copy(p[:], in[0])
		copy(dp[:], in[1])
		np, err := ReshapeAdd(p, dp)
		if err != nil {
			return nil, err
		}
		return [][]float64{np[:]}, nil

	case KChangeDetection:
		if len(in) != 3 || len(in[2]) != 2 {
			return nil, fmt.Errorf("wami: change-detection wants frame, background, [thresh alpha]")
		}
		frame, err := imageFrom(in[0])
		if err != nil {
			return nil, err
		}
		bg, err := imageFrom(in[1])
		if err != nil {
			return nil, err
		}
		if frame.N != bg.N {
			return nil, fmt.Errorf("wami: change-detection frame/background size mismatch")
		}
		mask, newBg := ChangeDetection(&frame, &bg, in[2][0], in[2][1])
		return [][]float64{mask.Pix, newBg.Pix}, nil
	}
	return nil, fmt.Errorf("wami: unknown kernel index %d", k.idx)
}

func oneImage(k wamiKernel, in [][]float64) (Image, error) {
	if len(in) != 1 {
		return Image{}, fmt.Errorf("wami: %s wants one image, got %d inputs", Names[k.idx], len(in))
	}
	return imageFrom(in[0])
}

// sixPlanes views six equal-size planes as images held in planes.
func sixPlanes(k wamiKernel, in [][]float64, planes *[6]Image) ([6]*Image, error) {
	var sd [6]*Image
	if len(in) != 6 {
		return sd, fmt.Errorf("wami: %s wants 6 planes, got %d", Names[k.idx], len(in))
	}
	for i := range sd {
		im, err := imageFrom(in[i])
		if err != nil {
			return sd, err
		}
		if i > 0 && im.N != sd[0].N {
			return sd, fmt.Errorf("wami: %s plane %d size differs", Names[k.idx], i)
		}
		planes[i] = im
		sd[i] = &planes[i]
	}
	return sd, nil
}
