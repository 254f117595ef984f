// Package wami implements the Wide Area Motion Imagery benchmark
// application (PERFECT suite) the paper evaluates with: the Debayer,
// Grayscale, Lucas-Kanade and Change-Detection kernels, with
// Lucas-Kanade decomposed into multiple accelerators exactly as Fig 3
// does to expose parallelism. Every kernel is functional — it computes
// real image-processing results, validated against scalar golden
// references in tests — and doubles as the accelerator payload of the
// runtime evaluation (Fig 4).
//
// The paper's aerial input frames are not redistributable, so the
// package ships a synthetic Bayer-pattern frame generator with moving
// targets and known ground truth, exercising the identical code path.
package wami

import (
	"fmt"
	"math"
	"sync"
)

// Image is a square grayscale image stored row-major.
type Image struct {
	N   int
	Pix []float64
}

// NewImage allocates an n×n image.
func NewImage(n int) *Image {
	return &Image{N: n, Pix: make([]float64, n*n)}
}

// pixPool is the free list of pixel buffers, ESP's accelerator buffer
// in software: the kernels and frame synthesis take their output
// planes from it, and Runner hands each plane back once the plane's
// last consumer has finished. It is safe for concurrent use, which the
// runner's frame producer relies on. A buffer comes back with arbitrary
// contents, so every producer writes each element. The pool drops its
// contents across garbage collections, so an idle process holds none.
var pixPool sync.Pool // of *[]float64

// recycledImage returns an n×n image on a buffer from the free list,
// or on a fresh one when the list has none large enough. Its pixels
// are arbitrary: the caller must write every one.
func recycledImage(n int) *Image {
	if p, ok := pixPool.Get().(*[]float64); ok && cap(*p) >= n*n {
		return &Image{N: n, Pix: (*p)[:n*n]}
	}
	return NewImage(n)
}

// releasePix hands buffers back to the free list. The caller gives up
// every reference to them: a later recycledImage may overwrite them.
func releasePix(bufs ...[]float64) {
	for i := range bufs {
		pixPool.Put(&bufs[i])
	}
}

// At returns the pixel at (x, y), clamping coordinates to the border.
func (im *Image) At(x, y int) float64 {
	if x < 0 {
		x = 0
	}
	if x >= im.N {
		x = im.N - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= im.N {
		y = im.N - 1
	}
	return im.Pix[y*im.N+x]
}

// Set writes the pixel at (x, y); out-of-range writes are ignored.
func (im *Image) Set(x, y int, v float64) {
	if x < 0 || x >= im.N || y < 0 || y >= im.N {
		return
	}
	im.Pix[y*im.N+x] = v
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	out := NewImage(im.N)
	copy(out.Pix, im.Pix)
	return out
}

// imageFrom interprets a flat slice as a square image. It returns the
// header by value, so an adapter's view of its input tensors needs no
// heap allocation.
func imageFrom(pix []float64) (Image, error) {
	n := int(math.Sqrt(float64(len(pix))))
	if n*n != len(pix) {
		return Image{}, fmt.Errorf("wami: length %d is not a square image", len(pix))
	}
	return Image{N: n, Pix: pix}, nil
}

// Debayer demosaics an RGGB Bayer mosaic into an RGB image using
// bilinear interpolation. Returns r, g, b planes. A neighbour outside
// the image reads the clamped border, as At does.
func Debayer(mosaic *Image) (r, g, b *Image) {
	n := mosaic.N
	r, g, b = recycledImage(n), recycledImage(n), recycledImage(n)
	m := mosaic.Pix
	for y := 0; y < n; y++ {
		up, row, dn := m[max(y-1, 0)*n:][:n], m[y*n:(y+1)*n], m[min(y+1, n-1)*n:][:n]
		rr, gr, br := r.Pix[y*n:(y+1)*n], g.Pix[y*n:(y+1)*n], b.Pix[y*n:(y+1)*n]
		evenRow := y%2 == 0
		for x := range row {
			xl, xr := max(x-1, 0), min(x+1, n-1)
			evenCol := x%2 == 0
			switch {
			case evenRow && evenCol: // red site
				rr[x] = row[x]
				gr[x] = (row[xl] + row[xr] + up[x] + dn[x]) / 4
				br[x] = (up[xl] + up[xr] + dn[xl] + dn[xr]) / 4
			case evenRow && !evenCol: // green site on red row
				gr[x] = row[x]
				rr[x] = (row[xl] + row[xr]) / 2
				br[x] = (up[x] + dn[x]) / 2
			case !evenRow && evenCol: // green site on blue row
				gr[x] = row[x]
				br[x] = (row[xl] + row[xr]) / 2
				rr[x] = (up[x] + dn[x]) / 2
			default: // blue site
				br[x] = row[x]
				gr[x] = (row[xl] + row[xr] + up[x] + dn[x]) / 4
				rr[x] = (up[xl] + up[xr] + dn[xl] + dn[xr]) / 4
			}
		}
	}
	return r, g, b
}

// Grayscale converts RGB planes to luma with the ITU-R BT.601 weights.
func Grayscale(r, g, b *Image) *Image {
	out := recycledImage(r.N)
	for i := range out.Pix {
		out.Pix[i] = 0.299*r.Pix[i] + 0.587*g.Pix[i] + 0.114*b.Pix[i]
	}
	return out
}

// Gradient computes central-difference spatial gradients dx, dy. A
// neighbour outside the image reads the clamped border, as At does.
func Gradient(im *Image) (gx, gy *Image) {
	n := im.N
	gx, gy = recycledImage(n), recycledImage(n)
	p := im.Pix
	for y := 0; y < n; y++ {
		up, row, dn := p[max(y-1, 0)*n:][:n], p[y*n:(y+1)*n], p[min(y+1, n-1)*n:][:n]
		xr, yr := gx.Pix[y*n:(y+1)*n], gy.Pix[y*n:(y+1)*n]
		for x := range row {
			xr[x] = (row[min(x+1, n-1)] - row[max(x-1, 0)]) / 2
			yr[x] = (dn[x] - up[x]) / 2
		}
	}
	return gx, gy
}

// Affine holds the 6 parameters of an affine warp:
//
//	x' = (1+p0)·x + p2·y + p4
//	y' = p1·x + (1+p3)·y + p5
type Affine [6]float64

// Apply maps (x, y) through the warp.
func (p Affine) Apply(x, y float64) (float64, float64) {
	return (1+p[0])*x + p[2]*y + p[4], p[1]*x + (1+p[3])*y + p[5]
}

// Compose returns the warp equivalent to applying q after p (inverse
// compositional update uses the inverse of the increment; Invert below).
func (p Affine) Compose(q Affine) Affine {
	// Represent as 3x3 matrices M = [[1+p0, p2, p4], [p1, 1+p3, p5], [0,0,1]].
	a := p.matrix()
	b := q.matrix()
	var c [9]float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				c[i*3+j] += a[i*3+k] * b[k*3+j]
			}
		}
	}
	return Affine{c[0] - 1, c[3], c[1], c[4] - 1, c[2], c[5]}
}

// Invert returns the inverse warp, or an error when singular.
func (p Affine) Invert() (Affine, error) {
	m := p.matrix()
	det := m[0]*m[4] - m[1]*m[3]
	if math.Abs(det) < 1e-12 {
		return Affine{}, fmt.Errorf("wami: singular affine warp")
	}
	inv0 := m[4] / det
	inv1 := -m[1] / det
	inv3 := -m[3] / det
	inv4 := m[0] / det
	inv2 := -(inv0*m[2] + inv1*m[5])
	inv5 := -(inv3*m[2] + inv4*m[5])
	return Affine{inv0 - 1, inv3, inv1, inv4 - 1, inv2, inv5}, nil
}

func (p Affine) matrix() [9]float64 {
	return [9]float64{1 + p[0], p[2], p[4], p[1], 1 + p[3], p[5], 0, 0, 1}
}

// Warp resamples image im through the affine warp with bilinear
// interpolation (the warp-img kernel). Taps outside the image read the
// clamped border.
//
// The zero warp, which every Lucas-Kanade run starts from, maps each
// pixel to itself: its taps are the pixel and its right and lower
// neighbours, clamped on the last column and row, and both fractions
// are +0. It evaluates the same sum on those taps without the
// coordinate arithmetic. It is not a copy: a zero-weighted tap still
// turns −0 into +0 and an infinite neighbour into NaN.
func Warp(im *Image, p Affine) *Image {
	n := im.N
	out := recycledImage(n)
	pix := im.Pix
	if p == (Affine{}) {
		for y := 0; y < n; y++ {
			row, dn := pix[y*n:(y+1)*n], pix[min(y+1, n-1)*n:][:n]
			o := out.Pix[y*n : (y+1)*n]
			for x := range o {
				x1 := min(x+1, n-1)
				o[x] = bilinear(0, 0, row[x], row[x1], dn[x], dn[x1])
			}
		}
		return out
	}
	for y := 0; y < n; y++ {
		row := out.Pix[y*n : (y+1)*n]
		for x := range row {
			sx, sy := p.Apply(float64(x), float64(y))
			x0, y0 := int(math.Floor(sx)), int(math.Floor(sy))
			fx, fy := sx-float64(x0), sy-float64(y0)
			if uint(x0) < uint(n-1) && uint(y0) < uint(n-1) {
				// The 2×2 footprint lies inside the image.
				i := y0*n + x0
				row[x] = bilinear(fx, fy, pix[i], pix[i+1], pix[i+n], pix[i+n+1])
			} else {
				row[x] = bilinear(fx, fy, im.At(x0, y0), im.At(x0+1, y0), im.At(x0, y0+1), im.At(x0+1, y0+1))
			}
		}
	}
	return out
}

// bilinear weighs the taps v00, v10, v01 and v11 of a 2×2 footprint by
// the fractional offsets fx, fy of the source coordinate.
func bilinear(fx, fy, v00, v10, v01, v11 float64) float64 {
	return (1-fx)*(1-fy)*v00 +
		fx*(1-fy)*v10 +
		(1-fx)*fy*v01 +
		fx*fy*v11
}

// Subtract computes a - b per pixel (the error image kernel).
func Subtract(a, b *Image) *Image {
	out := recycledImage(a.N)
	for i := range out.Pix {
		out.Pix[i] = a.Pix[i] - b.Pix[i]
	}
	return out
}

// SteepestDescent computes the six steepest-descent images of the
// inverse-compositional Lucas-Kanade algorithm from the template
// gradients: sd_k = ∇T · ∂W/∂p_k. gx and gy must be the same size.
func SteepestDescent(gx, gy *Image) [6]*Image {
	n := gx.N
	var sd [6]*Image
	for k := range sd {
		sd[k] = recycledImage(n)
	}
	for y := 0; y < n; y++ {
		fy := float64(y)
		lo, hi := y*n, (y+1)*n
		gxr, gyr := gx.Pix[lo:hi], gy.Pix[lo:hi]
		s0, s1, s2 := sd[0].Pix[lo:hi], sd[1].Pix[lo:hi], sd[2].Pix[lo:hi]
		s3, s4, s5 := sd[3].Pix[lo:hi], sd[4].Pix[lo:hi], sd[5].Pix[lo:hi]
		for x := range gxr {
			fx := float64(x)
			gxv, gyv := gxr[x], gyr[x]
			s0[x] = gxv * fx
			s1[x] = gyv * fx
			s2[x] = gxv * fy
			s3[x] = gyv * fy
			s4[x] = gxv
			s5[x] = gyv
		}
	}
	return sd
}

// Hessian computes the 6x6 Gauss-Newton Hessian H[i][j] = Σ sd_i·sd_j
// over planes of one size. Row i of the upper triangle takes one pass
// over the pixels with its 6-i sums as independent accumulators, each
// adding its products in ascending pixel order. (One pass feeding all
// 21 sums is slower: with the operands they outnumber amd64's sixteen
// floating-point registers and spill.)
func Hessian(sd [6]*Image) [36]float64 {
	n := len(sd[0].Pix)
	p0, p1, p2, p3, p4, p5 := sd[0].Pix, sd[1].Pix[:n], sd[2].Pix[:n], sd[3].Pix[:n], sd[4].Pix[:n], sd[5].Pix[:n]
	var h00, h01, h02, h03, h04, h05 float64
	for k, a := range p0 {
		h00 += a * a
		h01 += a * p1[k]
		h02 += a * p2[k]
		h03 += a * p3[k]
		h04 += a * p4[k]
		h05 += a * p5[k]
	}
	var h11, h12, h13, h14, h15 float64
	for k, b := range p1 {
		h11 += b * b
		h12 += b * p2[k]
		h13 += b * p3[k]
		h14 += b * p4[k]
		h15 += b * p5[k]
	}
	var h22, h23, h24, h25 float64
	for k, c := range p2 {
		h22 += c * c
		h23 += c * p3[k]
		h24 += c * p4[k]
		h25 += c * p5[k]
	}
	var h33, h34, h35 float64
	for k, d := range p3 {
		h33 += d * d
		h34 += d * p4[k]
		h35 += d * p5[k]
	}
	var h44, h45, h55 float64
	for k, e := range p4 {
		f := p5[k]
		h44 += e * e
		h45 += e * f
		h55 += f * f
	}
	return [36]float64{
		h00, h01, h02, h03, h04, h05,
		h01, h11, h12, h13, h14, h15,
		h02, h12, h22, h23, h24, h25,
		h03, h13, h23, h33, h34, h35,
		h04, h14, h24, h34, h44, h45,
		h05, h15, h25, h35, h45, h55,
	}
}

// SDUpdate computes the per-pixel products sd_k·err (the sd-update
// kernel); the reduction to the 6-vector b happens in Mult.
func SDUpdate(sd [6]*Image, err *Image) [6]*Image {
	var out [6]*Image
	e := err.Pix
	for k := range out {
		out[k] = recycledImage(err.N)
		o, s := out[k].Pix[:len(e)], sd[k].Pix[:len(e)]
		for i, v := range e {
			o[i] = s[i] * v
		}
	}
	return out
}

// MatrixInvert inverts a 6x6 matrix with Gauss-Jordan elimination and
// partial pivoting (the matrix-invert kernel).
func MatrixInvert(m [36]float64) ([36]float64, error) {
	var aug [6][12]float64
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			aug[i][j] = m[i*6+j]
		}
		aug[i][6+i] = 1
	}
	for col := 0; col < 6; col++ {
		piv := col
		for r := col + 1; r < 6; r++ {
			if math.Abs(aug[r][col]) > math.Abs(aug[piv][col]) {
				piv = r
			}
		}
		if math.Abs(aug[piv][col]) < 1e-12 {
			return [36]float64{}, fmt.Errorf("wami: singular Hessian (pivot %d)", col)
		}
		aug[col], aug[piv] = aug[piv], aug[col]
		p := aug[col][col]
		for j := 0; j < 12; j++ {
			aug[col][j] /= p
		}
		for r := 0; r < 6; r++ {
			if r == col {
				continue
			}
			f := aug[r][col]
			for j := 0; j < 12; j++ {
				aug[r][j] -= f * aug[col][j]
			}
		}
	}
	var inv [36]float64
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			inv[i*6+j] = aug[i][6+j]
		}
	}
	return inv, nil
}

// Mult reduces the sd-update planes to b_k = Σ sdu_k and applies the
// inverse Hessian: Δp = H⁻¹ · b (the mult kernel — image-scale
// reduction plus the small matrix-vector product). One pass over the
// planes, which must be the same size, feeds the six sums as
// independent accumulators in ascending pixel order.
func Mult(hinv [36]float64, sdu [6]*Image) Affine {
	s0 := sdu[0].Pix
	n := len(s0)
	s1, s2, s3, s4, s5 := sdu[1].Pix[:n], sdu[2].Pix[:n], sdu[3].Pix[:n], sdu[4].Pix[:n], sdu[5].Pix[:n]
	var b0, b1, b2, b3, b4, b5 float64
	for k, v := range s0 {
		b0 += v
		b1 += s1[k]
		b2 += s2[k]
		b3 += s3[k]
		b4 += s4[k]
		b5 += s5[k]
	}
	b := [6]float64{b0, b1, b2, b3, b4, b5}
	var dp Affine
	for i := 0; i < 6; i++ {
		var acc float64
		for j := 0; j < 6; j++ {
			acc += hinv[i*6+j] * b[j]
		}
		dp[i] = acc
	}
	return dp
}

// ReshapeAdd performs the inverse-compositional parameter update: the
// current warp is composed with the inverse of the increment (the
// reshape-add kernel of the decomposition).
func ReshapeAdd(p, dp Affine) (Affine, error) {
	dinv, err := dp.Invert()
	if err != nil {
		return Affine{}, err
	}
	return p.Compose(dinv), nil
}

// LucasKanade registers img against template tmpl: it returns the affine
// warp p minimizing Σ (img(W(x;p)) - tmpl(x))², running the inverse
// compositional algorithm for at most iters iterations. It composes the
// decomposed kernels exactly as the SoC schedules them.
func LucasKanade(tmpl, img *Image, iters int, eps float64) (Affine, int, error) {
	if tmpl.N != img.N {
		return Affine{}, 0, fmt.Errorf("wami: template %d and image %d differ in size", tmpl.N, img.N)
	}
	gx, gy := Gradient(tmpl)
	sd := SteepestDescent(gx, gy)
	h := Hessian(sd)
	hinv, err := MatrixInvert(h)
	if err != nil {
		return Affine{}, 0, err
	}
	var p Affine
	for it := 1; it <= iters; it++ {
		warped := Warp(img, p)
		errImg := Subtract(warped, tmpl)
		sdu := SDUpdate(sd, errImg)
		dp := Mult(hinv, sdu)
		p, err = ReshapeAdd(p, dp)
		if err != nil {
			return Affine{}, it, err
		}
		norm := 0.0
		for _, v := range dp {
			norm += v * v
		}
		if math.Sqrt(norm) < eps {
			return p, it, nil
		}
	}
	return p, iters, nil
}

// ChangeDetection compares the registered frame against the background
// model: pixels deviating more than thresh are flagged, and the
// background is updated with an exponential moving average (rate alpha).
// It returns the binary mask and the updated background.
func ChangeDetection(frame, background *Image, thresh, alpha float64) (mask, newBg *Image) {
	n := frame.N
	mask, newBg = recycledImage(n), recycledImage(n)
	for i := range frame.Pix {
		d := frame.Pix[i] - background.Pix[i]
		if math.Abs(d) > thresh {
			mask.Pix[i] = 1
		} else {
			mask.Pix[i] = 0
		}
		newBg.Pix[i] = (1-alpha)*background.Pix[i] + alpha*frame.Pix[i]
	}
	return mask, newBg
}
