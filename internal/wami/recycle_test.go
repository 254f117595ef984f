package wami

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// Grayscale, Subtract and ChangeDetection kept their straightforward
// forms; these references compute them on fresh, zeroed images, which
// is what the recycled-buffer test checks them against. The mask
// reference writes only its 1s, as the kernel did while its buffers
// came zeroed from make.

func refGrayscale(r, g, b *Image) *Image {
	out := NewImage(r.N)
	for i := range out.Pix {
		out.Pix[i] = 0.299*r.Pix[i] + 0.587*g.Pix[i] + 0.114*b.Pix[i]
	}
	return out
}

func refSubtract(a, b *Image) *Image {
	out := NewImage(a.N)
	for i := range out.Pix {
		out.Pix[i] = a.Pix[i] - b.Pix[i]
	}
	return out
}

func refChangeDetection(frame, background *Image, thresh, alpha float64) (mask, newBg *Image) {
	n := frame.N
	mask, newBg = NewImage(n), NewImage(n)
	for i := range frame.Pix {
		if math.Abs(frame.Pix[i]-background.Pix[i]) > thresh {
			mask.Pix[i] = 1
		}
		newBg.Pix[i] = (1-alpha)*background.Pix[i] + alpha*frame.Pix[i]
	}
	return mask, newBg
}

// nanPool puts NaN-filled n×n buffers on the free list, enough for the
// widest kernel output, and records the address of each buffer.
func nanPool(n int, seeded map[*float64]bool) {
	for i := 0; i < 8; i++ {
		buf := make([]float64, n*n)
		for j := range buf {
			buf[j] = math.NaN()
		}
		seeded[&buf[0]] = true
		releasePix(buf)
	}
}

// TestKernelsOnRecycledBuffers runs frame synthesis and all twelve
// kernels, through the accelerator adapters, with the free list full of
// NaN-filled buffers before every call: an element a producer leaves
// unwritten keeps its NaN and fails the bit-for-bit comparison with the
// reference.
func TestKernelsOnRecycledBuffers(t *testing.T) {
	seeded := make(map[*float64]bool)
	drawn := 0
	run := func(idx int, in ...[]float64) [][]float64 {
		t.Helper()
		nanPool(int(math.Sqrt(float64(len(in[0])))), seeded)
		out, err := kernelFor(idx).Run(in)
		if err != nil {
			t.Fatalf("%s: %v", Names[idx], err)
		}
		for _, o := range out {
			if len(o) > 0 && seeded[&o[0]] {
				drawn++
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(90001))
	for _, n := range []int{1, 2, 3, 5, 16, 128} {
		im := randImage(rng, n)
		var planes [6]*Image
		var flat [][]float64
		for k := range planes {
			planes[k] = randImage(rng, n)
			flat = append(flat, planes[k].Pix)
		}
		var m [36]float64
		for i := range m {
			m[i] = rng.NormFloat64()
			if i%7 == 0 {
				m[i] += 10 // diagonally dominant, so invertible
			}
		}
		p := Affine{0.05, 0.02, -0.03, -0.04, 1.3, -0.7}
		dp := Affine{0.01, -0.02, 0.03, 0.01, 0.2, -0.1}
		tag := func(k string) string { return fmt.Sprintf("n=%d %s", n, k) }

		out := run(KDebayer, im.Pix)
		rr, rg, rb := refDebayer(im)
		sameBits(t, tag("debayer r"), out[0], rr.Pix)
		sameBits(t, tag("debayer g"), out[1], rg.Pix)
		sameBits(t, tag("debayer b"), out[2], rb.Pix)

		out = run(KGrayscale, flat[0], flat[1], flat[2])
		sameBits(t, tag("grayscale"), out[0], refGrayscale(planes[0], planes[1], planes[2]).Pix)

		out = run(KGradient, im.Pix)
		rgx, rgy := refGradient(im)
		sameBits(t, tag("gradient gx"), out[0], rgx.Pix)
		sameBits(t, tag("gradient gy"), out[1], rgy.Pix)

		for _, w := range borderWarps(n) {
			out = run(KWarpImg, im.Pix, w[:])
			sameBits(t, tag(fmt.Sprintf("warp %v", w)), out[0], refWarp(im, w).Pix)
		}

		out = run(KSubtract, im.Pix, flat[0])
		sameBits(t, tag("subtract"), out[0], refSubtract(im, planes[0]).Pix)

		out = run(KSteepestDescent, flat[0], flat[1])
		for k, want := range refSteepestDescent(planes[0], planes[1]) {
			sameBits(t, tag(fmt.Sprintf("steepest-descent %d", k)), out[k], want.Pix)
		}

		out = run(KHessian, flat...)
		h := refHessian(planes)
		sameBits(t, tag("hessian"), out[0], h[:])

		out = run(KSDUpdate, append(flat[:6:6], im.Pix)...)
		for k, want := range refSDUpdate(planes, im) {
			sameBits(t, tag(fmt.Sprintf("sd-update %d", k)), out[k], want.Pix)
		}

		out = run(KMatrixInvert, m[:])
		inv, err := MatrixInvert(m)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, tag("matrix-invert"), out[0], inv[:])

		out = run(KMult, append([][]float64{inv[:]}, flat...)...)
		want := refMult(inv, planes)
		sameBits(t, tag("mult"), out[0], want[:])

		out = run(KReshapeAdd, p[:], dp[:])
		np, err := ReshapeAdd(p, dp)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, tag("reshape-add"), out[0], np[:])

		// randImage pixels are N(0, 100²): a threshold of 100 flags
		// about half of the differences, so the mask holds 0s and 1s.
		out = run(KChangeDetection, im.Pix, flat[0], []float64{100, 0.25})
		mask, bg := refChangeDetection(im, planes[0], 100, 0.25)
		sameBits(t, tag("change-detection mask"), out[0], mask.Pix)
		sameBits(t, tag("change-detection background"), out[1], bg.Pix)
	}

	for _, n := range []int{16, 128} {
		src, err := NewFrameSource(n, 0.7, -0.4, 4)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := NewFrameSource(n, 0.7, -0.4, 4)
		for f := 0; f < 3; f++ {
			nanPool(n, seeded)
			got := src.Next().Pix
			if seeded[&got[0]] {
				drawn++
			}
			sameBits(t, fmt.Sprintf("n=%d frame %d", n, f), got, refNext(ref).Pix)
		}
	}
	// The free list may drop what it holds at any time, so a single
	// call may still get a fresh buffer; over the whole run, many must
	// have come from the list, or the test checked nothing.
	if drawn == 0 {
		t.Fatal("no output was written into a recycled buffer")
	}
}

// scene is one synthetic frame stream of the reuse tests.
type scene struct {
	dx, dy  float64
	targets int
}

var reuseScenes = []scene{{0.7, -0.4, 3}, {-0.5, 0.6, 2}}

// runScene runs frames of sc at edge 64 through runner.
func runScene(runner *Runner, sc scene, frames int) (*RunReport, error) {
	src, err := NewFrameSource(64, sc.dx, sc.dy, sc.targets)
	if err != nil {
		return nil, err
	}
	return runner.ProcessFrames(src, frames)
}

// functional is the part of a frame's record the pixels decide: the
// registration and detection results, independent of which bitstreams
// the tiles held when the batch began.
type functional struct {
	Detections int
	LKIters    int
	MotionErr  uint64
}

func functionalOf(rep *RunReport) []functional {
	out := make([]functional, len(rep.Frames))
	for i, f := range rep.Frames {
		out[i] = functional{f.Detections, f.LKIters, math.Float64bits(f.MotionErr)}
	}
	return out
}

// TestRunnerReusesBuffersAcrossScenes runs two different scenes back to
// back on one booted SoC, so the second batch draws the planes the first
// handed back, and compares each with the same scene on a fresh boot.
// The second batch starts from the tiles the first left loaded, so the
// comparison covers the pixel-decided results; three LK iterations put
// non-final warped images through the free list too.
func TestRunnerReusesBuffersAcrossScenes(t *testing.T) {
	for _, soc := range RuntimeSoCNames() {
		t.Run(soc, func(t *testing.T) {
			shared, rt := bootRunner(t, soc, 3)
			_, alloc, err := RuntimeSoC(soc)
			if err != nil {
				t.Fatal(err)
			}
			for i, sc := range reuseScenes {
				if i > 0 {
					// A runner's first frame only initialises it, so
					// each scene gets its own runner on the one SoC.
					if shared, err = NewRunner(rt, alloc, shared.cfg); err != nil {
						t.Fatal(err)
					}
				}
				got, err := runScene(shared, sc, 5)
				if err != nil {
					t.Fatal(err)
				}
				fresh, _ := bootRunner(t, soc, 3)
				want, err := runScene(fresh, sc, 5)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := functionalOf(got), functionalOf(want); !reflect.DeepEqual(g, w) {
					t.Errorf("scene %d after %d on one SoC: %+v, fresh boot %+v", i, i, g, w)
				}
			}
		})
	}
}

// TestRunnersShareFreeListConcurrently runs SoC_X, SoC_Y and SoC_Z on
// their own goroutines, two scenes each, all drawing on the one free
// list, and requires every report to equal the same SoC's sequential
// run. Under the race detector a plane handed back while a runner still
// reads it shows up as a race between runners.
func TestRunnersShareFreeListConcurrently(t *testing.T) {
	socs := RuntimeSoCNames()
	boot := func() []*Runner {
		runners := make([]*Runner, len(socs))
		for i, soc := range socs {
			runners[i], _ = bootRunner(t, soc, 2)
		}
		return runners
	}
	// run processes every scene on the SoC first runs on, one runner
	// per scene.
	run := func(soc string, first *Runner) ([]*RunReport, error) {
		_, alloc, err := RuntimeSoC(soc)
		if err != nil {
			return nil, err
		}
		var reps []*RunReport
		for _, sc := range reuseScenes {
			runner, err := NewRunner(first.rt, alloc, first.cfg)
			if err != nil {
				return nil, err
			}
			rep, err := runScene(runner, sc, 4)
			if err != nil {
				return nil, err
			}
			reps = append(reps, rep)
		}
		return reps, nil
	}

	want := make([][]*RunReport, len(socs))
	for i, r := range boot() {
		reps, err := run(socs[i], r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = reps
	}
	got := make([][]*RunReport, len(socs))
	errs := make([]error, len(socs))
	var wg sync.WaitGroup
	for i, r := range boot() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(socs[i], r)
		}()
	}
	wg.Wait()
	for i, soc := range socs {
		if errs[i] != nil {
			t.Errorf("%s: %v", soc, errs[i])
		} else if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: concurrent reports differ from the sequential run", soc)
		}
	}
}
