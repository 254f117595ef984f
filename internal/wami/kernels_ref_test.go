package wami

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference implementations below are the straightforward forms of
// the rewritten kernels and of frame synthesis — clamped At/Set on
// every pixel, one serial sum per Hessian entry and per Mult plane, and
// four sines and cosines plus a scan over every target per pixel — kept
// verbatim as the oracle of TestKernelsMatchReference and
// FuzzKernelsMatchReference: production must reproduce them bit for
// bit.

func refDebayer(mosaic *Image) (r, g, b *Image) {
	n := mosaic.N
	r, g, b = NewImage(n), NewImage(n), NewImage(n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			evenRow := y%2 == 0
			evenCol := x%2 == 0
			switch {
			case evenRow && evenCol: // red site
				r.Set(x, y, mosaic.At(x, y))
				g.Set(x, y, (mosaic.At(x-1, y)+mosaic.At(x+1, y)+mosaic.At(x, y-1)+mosaic.At(x, y+1))/4)
				b.Set(x, y, (mosaic.At(x-1, y-1)+mosaic.At(x+1, y-1)+mosaic.At(x-1, y+1)+mosaic.At(x+1, y+1))/4)
			case evenRow && !evenCol: // green site on red row
				g.Set(x, y, mosaic.At(x, y))
				r.Set(x, y, (mosaic.At(x-1, y)+mosaic.At(x+1, y))/2)
				b.Set(x, y, (mosaic.At(x, y-1)+mosaic.At(x, y+1))/2)
			case !evenRow && evenCol: // green site on blue row
				g.Set(x, y, mosaic.At(x, y))
				b.Set(x, y, (mosaic.At(x-1, y)+mosaic.At(x+1, y))/2)
				r.Set(x, y, (mosaic.At(x, y-1)+mosaic.At(x, y+1))/2)
			default: // blue site
				b.Set(x, y, mosaic.At(x, y))
				g.Set(x, y, (mosaic.At(x-1, y)+mosaic.At(x+1, y)+mosaic.At(x, y-1)+mosaic.At(x, y+1))/4)
				r.Set(x, y, (mosaic.At(x-1, y-1)+mosaic.At(x+1, y-1)+mosaic.At(x-1, y+1)+mosaic.At(x+1, y+1))/4)
			}
		}
	}
	return r, g, b
}

func refGradient(im *Image) (gx, gy *Image) {
	n := im.N
	gx, gy = NewImage(n), NewImage(n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			gx.Set(x, y, (im.At(x+1, y)-im.At(x-1, y))/2)
			gy.Set(x, y, (im.At(x, y+1)-im.At(x, y-1))/2)
		}
	}
	return gx, gy
}

func refWarp(im *Image, p Affine) *Image {
	n := im.N
	out := NewImage(n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			sx, sy := p.Apply(float64(x), float64(y))
			x0, y0 := int(math.Floor(sx)), int(math.Floor(sy))
			fx, fy := sx-float64(x0), sy-float64(y0)
			v := (1-fx)*(1-fy)*im.At(x0, y0) +
				fx*(1-fy)*im.At(x0+1, y0) +
				(1-fx)*fy*im.At(x0, y0+1) +
				fx*fy*im.At(x0+1, y0+1)
			out.Set(x, y, v)
		}
	}
	return out
}

func refSteepestDescent(gx, gy *Image) [6]*Image {
	n := gx.N
	var sd [6]*Image
	for k := range sd {
		sd[k] = NewImage(n)
	}
	for y := 0; y < n; y++ {
		fy := float64(y)
		for x := 0; x < n; x++ {
			fx := float64(x)
			gxv, gyv := gx.At(x, y), gy.At(x, y)
			sd[0].Set(x, y, gxv*fx)
			sd[1].Set(x, y, gyv*fx)
			sd[2].Set(x, y, gxv*fy)
			sd[3].Set(x, y, gyv*fy)
			sd[4].Set(x, y, gxv)
			sd[5].Set(x, y, gyv)
		}
	}
	return sd
}

func refHessian(sd [6]*Image) [36]float64 {
	var h [36]float64
	for i := 0; i < 6; i++ {
		for j := i; j < 6; j++ {
			var acc float64
			pi, pj := sd[i].Pix, sd[j].Pix
			for k := range pi {
				acc += pi[k] * pj[k]
			}
			h[i*6+j] = acc
			h[j*6+i] = acc
		}
	}
	return h
}

func refSDUpdate(sd [6]*Image, err *Image) [6]*Image {
	var out [6]*Image
	for k := range out {
		out[k] = NewImage(err.N)
		for i := range err.Pix {
			out[k].Pix[i] = sd[k].Pix[i] * err.Pix[i]
		}
	}
	return out
}

func refMult(hinv [36]float64, sdu [6]*Image) Affine {
	var b [6]float64
	for k := 0; k < 6; k++ {
		var acc float64
		for _, v := range sdu[k].Pix {
			acc += v
		}
		b[k] = acc
	}
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

func refBackground(x, y float64) float64 {
	v := 128 +
		45*math.Sin(x*0.11)*math.Cos(y*0.07) +
		30*math.Sin(x*0.031+y*0.043) +
		20*math.Cos(x*0.017-y*0.023)
	return v
}

func refTargetAt(s *FrameSource, x, y, idx int) float64 {
	for t := 0; t < s.Targets; t++ {
		tx := (17*t + 23 + 2*idx) % (s.N - 4)
		ty := (31*t + 11 + idx) % (s.N - 4)
		if x >= tx && x < tx+2 && y >= ty && y < ty+2 {
			return targetIntensity
		}
	}
	return 0
}

// refNext is FrameSource.Next as it was: it advances s exactly as Next
// does.
func refNext(s *FrameSource) *Image {
	idx := s.frame
	s.frame++
	ox, oy := s.GroundTruthMotion(idx)
	out := NewImage(s.N)
	for y := 0; y < s.N; y++ {
		for x := 0; x < s.N; x++ {
			v := refBackground(float64(x)+ox, float64(y)+oy) + refTargetAt(s, x, y, idx)
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			out.Set(x, y, v)
		}
	}
	return out
}

// sameBits fails tb unless got and want hold the same float64 bit
// patterns.
func sameBits(tb testing.TB, what string, got, want []float64) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d values, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			tb.Fatalf("%s: value %d = %v (%#x), reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// compareKernels runs every rewritten kernel and its reference on the
// same inputs: im feeds Debayer, Gradient, each warp and SDUpdate (as
// the error image); planes feed SteepestDescent (as gx, gy), SDUpdate,
// Hessian and Mult.
func compareKernels(tb testing.TB, im *Image, planes [6]*Image, hinv [36]float64, warps []Affine) {
	tb.Helper()
	n := im.N
	r, g, b := Debayer(im)
	rr, rg, rb := refDebayer(im)
	sameBits(tb, fmt.Sprintf("n=%d Debayer r", n), r.Pix, rr.Pix)
	sameBits(tb, fmt.Sprintf("n=%d Debayer g", n), g.Pix, rg.Pix)
	sameBits(tb, fmt.Sprintf("n=%d Debayer b", n), b.Pix, rb.Pix)

	gx, gy := Gradient(im)
	rgx, rgy := refGradient(im)
	sameBits(tb, fmt.Sprintf("n=%d Gradient gx", n), gx.Pix, rgx.Pix)
	sameBits(tb, fmt.Sprintf("n=%d Gradient gy", n), gy.Pix, rgy.Pix)

	for _, p := range warps {
		sameBits(tb, fmt.Sprintf("n=%d Warp %v", n, p), Warp(im, p).Pix, refWarp(im, p).Pix)
	}

	sd, rsd := SteepestDescent(planes[0], planes[1]), refSteepestDescent(planes[0], planes[1])
	for k := range sd {
		sameBits(tb, fmt.Sprintf("n=%d SteepestDescent %d", n, k), sd[k].Pix, rsd[k].Pix)
	}

	sdu, rsdu := SDUpdate(planes, im), refSDUpdate(planes, im)
	for k := range sdu {
		sameBits(tb, fmt.Sprintf("n=%d SDUpdate %d", n, k), sdu[k].Pix, rsdu[k].Pix)
	}

	h, rh := Hessian(planes), refHessian(planes)
	sameBits(tb, fmt.Sprintf("n=%d Hessian", n), h[:], rh[:])

	dp, rdp := Mult(hinv, planes), refMult(hinv, planes)
	sameBits(tb, fmt.Sprintf("n=%d Mult", n), dp[:], rdp[:])
}

// borderWarps returns warps whose bilinear footprint, on an n×n image,
// lies inside, crosses each border, or lies fully outside.
func borderWarps(n int) []Affine {
	f := float64(n)
	return []Affine{
		{},                                    // identity: every footprint inside but the last row/column
		{0, 0, 0, 0, 0.25, 0.75},              // sub-pixel shift
		{0, 0, 0, 0, -0.5, 0},                 // crosses the left border
		{0, 0, 0, 0, 0.5, 0},                  // crosses the right border
		{0, 0, 0, 0, 0, -0.5},                 // crosses the top border
		{0, 0, 0, 0, 0, 0.5},                  // crosses the bottom border
		{0, 0, 0, 0, 1, -1},                   // whole-pixel shift (zero weights on a tap)
		{0, 0, 0, 0, -f - 3.5, 0.25},          // fully left
		{0, 0, 0, 0, f + 3.5, 0.25},           // fully right
		{0, 0, 0, 0, 0.25, -f - 3.5},          // fully above
		{0, 0, 0, 0, 0.25, f + 3.5},           // fully below
		{0.05, 0.02, -0.03, -0.04, 1.3, -0.7}, // scale, shear and shift
		{-0.6, 0.3, 0.3, -0.6, f / 2, f / 3},  // strong shrink about an inner point
	}
}

// sameBitsOrNaN is sameBits for inputs holding infinities: where the
// reference value is NaN, got need only be NaN, because a NaN's payload
// depends on the operand order that produced it.
func sameBitsOrNaN(tb testing.TB, what string, got, want []float64) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d values, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.IsNaN(want[i]) && math.IsNaN(got[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			tb.Fatalf("%s: value %d = %v (%#x), reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// specialImage returns an n×n image of random pixels, about a quarter
// of them replaced by −0, +Inf or −Inf.
func specialImage(rng *rand.Rand, n int) *Image {
	im := randImage(rng, n)
	for i := range im.Pix {
		switch rng.Intn(12) {
		case 0:
			im.Pix[i] = math.Copysign(0, -1)
		case 1:
			im.Pix[i] = math.Inf(1)
		case 2:
			im.Pix[i] = math.Inf(-1)
		}
	}
	return im
}

func randImage(rng *rand.Rand, n int) *Image {
	im := NewImage(n)
	for i := range im.Pix {
		im.Pix[i] = rng.NormFloat64() * 100
	}
	return im
}

// TestKernelsMatchReference checks the direct-indexing kernels and the
// separable frame synthesis bit for bit against the clamped-accessor
// implementations they replaced.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20231))
	for _, n := range []int{1, 2, 3, 4, 5, 16, 17, 128} {
		im := randImage(rng, n)
		var planes [6]*Image
		for k := range planes {
			planes[k] = randImage(rng, n)
		}
		var hinv [36]float64
		for i := range hinv {
			hinv[i] = rng.NormFloat64()
		}
		warps := borderWarps(n)
		for i := 0; i < 8; i++ {
			warps = append(warps, Affine{
				rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1,
				rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1,
				rng.NormFloat64() * float64(n), rng.NormFloat64() * float64(n),
			})
		}
		compareKernels(t, im, planes, hinv, warps)
	}

	// −0 and ±Inf reach the zero-weighted taps of the zero warp and the
	// clamped border taps of the stencils; both must treat them as the
	// reference does. The warps include p = −0 in every parameter, which
	// equals Affine{} and so takes the zero-warp path.
	notCopy := 0
	negZero := math.Copysign(0, -1)
	for _, n := range []int{1, 2, 3, 4, 5, 16, 17} {
		for i := 0; i < 4; i++ {
			im := specialImage(rng, n)
			what := fmt.Sprintf("special n=%d image %d", n, i)
			r, g, b := Debayer(im)
			rr, rg, rb := refDebayer(im)
			sameBitsOrNaN(t, what+" Debayer r", r.Pix, rr.Pix)
			sameBitsOrNaN(t, what+" Debayer g", g.Pix, rg.Pix)
			sameBitsOrNaN(t, what+" Debayer b", b.Pix, rb.Pix)
			gx, gy := Gradient(im)
			rgx, rgy := refGradient(im)
			sameBitsOrNaN(t, what+" Gradient gx", gx.Pix, rgx.Pix)
			sameBitsOrNaN(t, what+" Gradient gy", gy.Pix, rgy.Pix)
			warps := append(borderWarps(n), Affine{negZero, negZero, negZero, negZero, negZero, negZero})
			for _, p := range warps {
				sameBitsOrNaN(t, fmt.Sprintf("%s Warp %v", what, p), Warp(im, p).Pix, refWarp(im, p).Pix)
			}
			for k, v := range refWarp(im, Affine{}).Pix {
				if math.Float64bits(v) != math.Float64bits(im.Pix[k]) {
					notCopy++
				}
			}
		}
	}
	if notCopy == 0 {
		t.Fatal("the reference zero warp copied every special image; a copy would pass unchecked")
	}

	overlaps := 0
	for _, n := range []int{16, 17, 23, 128} {
		// Small frames run long enough for every target position to
		// wrap modulo n-4 on both axes; the 128-px frame of the
		// runtime evaluation runs a few frames.
		frames := 2*(n-4) + 3
		if n == 128 {
			frames = 4
		}
		for targets := 0; targets <= 6; targets++ {
			src, err := NewFrameSource(n, 0.7, -0.4, targets)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := NewFrameSource(n, 0.7, -0.4, targets)
			for f := 0; f < frames; f++ {
				overlaps += targetOverlaps(src, src.FrameIndex())
				sameBits(t, fmt.Sprintf("n=%d targets=%d frame %d", n, targets, f), src.Next().Pix, refNext(ref).Pix)
			}
		}
	}
	// Sources built as literals skip NewFrameSource's 16-px minimum;
	// tiny frames put target boxes past the edge and on the last row.
	for _, n := range []int{1, 2, 3, 5, 6} {
		src := &FrameSource{N: n, DX: 0.3, DY: -0.2, Targets: 3}
		ref := &FrameSource{N: n, DX: 0.3, DY: -0.2, Targets: 3}
		for f := 0; f < 4; f++ {
			sameBits(t, fmt.Sprintf("literal n=%d frame %d", n, f), src.Next().Pix, refNext(ref).Pix)
		}
	}
	if overlaps == 0 {
		t.Fatal("no frame had overlapping targets; the overlap rule went unchecked")
	}
}

// targetOverlaps counts the pixels of frame idx that two or more
// targets cover.
func targetOverlaps(s *FrameSource, idx int) int {
	count := 0
	for y := 0; y < s.N; y++ {
		for x := 0; x < s.N; x++ {
			covering := 0
			for t := 0; t < s.Targets; t++ {
				tx, ty := s.targetPosition(t, idx)
				if x >= tx && x < tx+2 && y >= ty && y < ty+2 {
					covering++
				}
			}
			if covering > 1 {
				count++
			}
		}
	}
	return count
}

// FuzzKernelsMatchReference fuzzes image size, pixels and warp
// parameters; every kernel and the frame source must match their
// references bit for bit.
func FuzzKernelsMatchReference(f *testing.F) {
	f.Add(uint8(3), []byte{1, 200, 3, 77}, 0.0, 0.0, 0.0, 0.0, -0.5, 0.5)
	f.Add(uint8(16), []byte{9, 8, 7}, 0.05, 0.02, -0.03, -0.04, 1.3, -0.7)
	f.Add(uint8(1), []byte{}, 0.0, 0.0, 0.0, 0.0, 40.0, -40.0)
	f.Add(uint8(7), []byte{5, 250, 0, 128, 64}, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) // the zero warp
	f.Fuzz(func(t *testing.T, size uint8, data []byte, p0, p1, p2, p3, p4, p5 float64) {
		p := Affine{p0, p1, p2, p3, p4, p5}
		for _, v := range p {
			// Finite, bounded parameters keep every source coordinate
			// exactly convertible to int.
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		n := int(size)%40 + 1
		pixel := func(i int) float64 {
			if len(data) == 0 {
				return 0
			}
			return float64(int8(data[i%len(data)]))*1.7 + float64(i/len(data))
		}
		im := NewImage(n)
		for i := range im.Pix {
			im.Pix[i] = pixel(i)
		}
		var planes [6]*Image
		for k := range planes {
			planes[k] = NewImage(n)
			for i := range planes[k].Pix {
				planes[k].Pix[i] = pixel(i*7 + k)
			}
		}
		var hinv [36]float64
		for i := range hinv {
			hinv[i] = pixel(i * 3)
		}
		compareKernels(t, im, planes, hinv, []Affine{p})

		fn := n%24 + 16
		src, err := NewFrameSource(fn, p4/1e3, p5/1e3, int(size)%7)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := NewFrameSource(fn, p4/1e3, p5/1e3, int(size)%7)
		for i := 0; i < 3; i++ {
			sameBits(t, fmt.Sprintf("n=%d frame %d", fn, i), src.Next().Pix, refNext(ref).Pix)
		}
	})
}
