package wami

import (
	"fmt"
	"math"
)

// FrameSource generates synthetic aerial-style Bayer frames: a smooth
// textured background that shifts by a known global motion every frame
// (what Lucas-Kanade must recover) plus small moving targets (what
// Change-Detection must flag). Ground truth is retained so tests can
// check end-to-end correctness.
type FrameSource struct {
	// N is the frame edge length in pixels (square frames).
	N int
	// DX, DY is the per-frame global translation in pixels.
	DX, DY float64
	// Targets is the moving-target count.
	Targets int

	frame int
}

// NewFrameSource builds a source of n×n frames with the given global
// per-frame motion and target count.
func NewFrameSource(n int, dx, dy float64, targets int) (*FrameSource, error) {
	if n < 16 {
		return nil, fmt.Errorf("wami: frame size %d too small (min 16)", n)
	}
	if targets < 0 {
		return nil, fmt.Errorf("wami: negative target count")
	}
	return &FrameSource{N: n, DX: dx, DY: dy, Targets: targets}, nil
}

// FrameIndex returns the index of the next frame Next will produce:
// the number of frames taken from the source since it was built.
func (s *FrameSource) FrameIndex() int { return s.frame }

// GroundTruthMotion returns the cumulative translation of frame idx
// relative to frame 0.
func (s *FrameSource) GroundTruthMotion(idx int) (float64, float64) {
	return s.DX * float64(idx), s.DY * float64(idx)
}

// targetIntensity is the brightness step of a moving target above the
// background. It is kept well below the change-detection threshold
// contrast of the background texture so the handful of target pixels
// does not bias the registration (in real WAMI frames targets occupy a
// vanishing fraction of the scene; synthetic frames are small, so the
// intensity compensates for the relatively larger covered area).
const targetIntensity = 40

// Next produces the next Bayer mosaic frame (RGGB pattern) and advances
// the source.
func (s *FrameSource) Next() *Image {
	img := s.render(s.frame)
	s.frame++
	return img
}

// render synthesises frame idx on a buffer from the free list. It reads
// only the source's fixed fields (N, DX, DY, Targets), never the
// frame counter, so a goroutine may render frames ahead of the one
// taking them.
//
// The background texture is a sum of smooth sinusoids, so sub-pixel
// warping is well defined:
//
//	128 + 45·sin(0.11x)·cos(0.07y) + 30·sin(0.031x+0.043y) + 20·cos(0.017x−0.023y)
//
// at (x, y) shifted by the frame's ground-truth motion. The first term
// is separable: its sine is evaluated once per column and its cosine
// once per row, and the sum keeps the left-to-right order above. Targets
// are 2×2 squares moving diagonally; each adds targetIntensity once
// (overlapping squares do not stack) before the pixel is clamped to
// [0, 255].
func (s *FrameSource) render(idx int) *Image {
	ox, oy := s.GroundTruthMotion(idx)
	n := s.N
	out := recycledImage(n)
	// The last row holds the column factors 45·sin(0.11x) until it is
	// itself computed, in place, each factor read before its pixel is
	// written; every other row touches only itself.
	colSin := out.Pix[(n-1)*n:]
	for x := range colSin {
		colSin[x] = 45 * math.Sin((float64(x)+ox)*0.11)
	}
	for y := 0; y < n; y++ {
		fy := float64(y) + oy
		cy := math.Cos(fy * 0.07)
		row := out.Pix[y*n : (y+1)*n]
		for x := range row {
			// The synthetic scene is achromatic (equal R/G/B), so the
			// RGGB mosaic samples the same luma field at every site;
			// demosaicing still exercises the full interpolation path
			// but introduces no checkerboard that would bias the
			// registration gradients.
			fx := float64(x) + ox
			row[x] = 128 + colSin[x]*cy + 30*math.Sin(fx*0.031+fy*0.043) + 20*math.Cos(fx*0.017-fy*0.023)
		}
		for t := 0; t < s.Targets; t++ {
			tx, ty := s.targetPosition(t, idx)
			if y < ty || y >= ty+2 {
				continue
			}
			for x := tx; x < tx+2 && x < n; x++ {
				if !s.coveredBefore(t, x, y, idx) {
					row[x] += targetIntensity
				}
			}
		}
		for x, v := range row {
			if v < 0 {
				row[x] = 0
			}
			if v > 255 {
				row[x] = 255
			}
		}
	}
	return out
}

// coveredBefore reports whether a target numbered below t covers pixel
// (x, y) of frame idx.
func (s *FrameSource) coveredBefore(t, x, y, idx int) bool {
	for u := 0; u < t; u++ {
		ux, uy := s.targetPosition(u, idx)
		if x >= ux && x < ux+2 && y >= uy && y < uy+2 {
			return true
		}
	}
	return false
}
