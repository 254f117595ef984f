package accel

import (
	"math"
	"math/rand"
	"testing"
)

// Differential tests of the characterisation kernels against
// straightforward references over seeded random inputs. Where the
// reference adds the same products in the same order the outputs must
// be bit-identical; the FFT reorders the DFT's arithmetic, so it is held
// to a stated ulp bound instead.

// randVec returns n values in [-8, 8), about a tenth of them exactly 0
// (the zeros exercise GEMM's skip of a zero A element).
func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(10) > 0 {
			v[i] = rng.Float64()*16 - 8
		}
	}
	return v
}

// sameBits reports whether two slices hold bit-identical values.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func run(t *testing.T, k Kernel, in ...[]float64) []float64 {
	t.Helper()
	out, err := k.Run(in)
	if err != nil {
		t.Fatalf("%s: %v", k.Name(), err)
	}
	return out[0]
}

func TestMACMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		a, b := randVec(rng, n), randVec(rng, n)
		var want float64
		for i := 0; i < n; i++ {
			want += a[i] * b[i]
		}
		if got := run(t, MACKernel{}, a, b); !sameBits(got, []float64{want}) {
			t.Fatalf("n=%d: mac %v, reference %v", n, got, want)
		}
	}
}

// TestConv2DMatchesReference: the reference convolves an explicitly
// zero-padded copy of the image, taps in the kernel's (fy, fx) order.
// A padding tap adds a signed zero, which leaves a sum of finite
// products unchanged, so the results must be bit-identical.
func TestConv2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(20)
		K := 1 + 2*rng.Intn(3)
		img, filt := randVec(rng, n*n), randVec(rng, K*K)
		half, w := K/2, n+K-1
		pad := make([]float64, w*w)
		for y := 0; y < n; y++ {
			copy(pad[(y+half)*w+half:], img[y*n:(y+1)*n])
		}
		want := make([]float64, n*n)
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				var acc float64
				for fy := 0; fy < K; fy++ {
					for fx := 0; fx < K; fx++ {
						acc += pad[(y+fy)*w+x+fx] * filt[fy*K+fx]
					}
				}
				want[y*n+x] = acc
			}
		}
		if got := run(t, Conv2DKernel{K: K}, img, filt); !sameBits(got, want) {
			t.Fatalf("n=%d K=%d: conv2d differs from the zero-padded reference", n, K)
		}
	}
}

// TestGEMMMatchesReference: the textbook triple loop sums each C[i][j]
// over k ascending, as the kernel's row updates do, so the products
// meet in the same order and the results must be bit-identical.
func TestGEMMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(24)
		a, b := randVec(rng, n*n), randVec(rng, n*n)
		want := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var acc float64
				for k := 0; k < n; k++ {
					acc += a[i*n+k] * b[k*n+j]
				}
				want[i*n+j] = acc
			}
		}
		if got := run(t, GEMMKernel{}, a, b); !sameBits(got, want) {
			t.Fatalf("n=%d: gemm differs from the triple-loop reference", n)
		}
	}
}

// fftULPBound is the largest error the radix-2 FFT may show against the
// direct DFT on inputs of up to 1024 points, in ulps of Σ|x[j]|, the
// largest magnitude any bin can take. Both forms round O(n) times and
// the FFT's twiddles come from a running product whose error grows with
// the butterfly span, so the error scales with that sum, not with each
// bin's own magnitude. The worst seen over 20 random inputs per size
// is about 14 ulps, at 1024 points.
const fftULPBound = 32

// TestFFTMatchesDFT compares every bin with the direct DFT, whose
// twiddle angle reduces k·j mod n before scaling so it stays accurate
// for large n.
func TestFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	worst := 0.0
	for trial := 0; trial < 40; trial++ {
		n := 1 << rng.Intn(11)
		x := randVec(rng, n)
		got := run(t, FFTKernel{}, x)
		l1 := 0.0
		for _, v := range x {
			l1 += math.Abs(v)
		}
		ulp := math.Nextafter(l1, math.Inf(1)) - l1
		for k := 0; k < n; k++ {
			var re, im float64
			for j := 0; j < n; j++ {
				ang := -2 * math.Pi * float64(k*j%n) / float64(n)
				re += x[j] * math.Cos(ang)
				im += x[j] * math.Sin(ang)
			}
			for part, want := range [2]float64{re, im} {
				e := math.Abs(got[2*k+part]-want) / ulp
				worst = math.Max(worst, e)
				if e > fftULPBound {
					t.Fatalf("n=%d bin %d part %d: %g, DFT %g: %.1f ulps of Σ|x| = %g (bound %d)",
						n, k, part, got[2*k+part], want, e, l1, fftULPBound)
				}
			}
		}
	}
	t.Logf("worst FFT error: %.1f ulps of Σ|x|", worst)
}

// TestSortMatchesReference: an insertion sort of the same values gives
// the same bits (the inputs hold no NaN and no signed zero pair whose
// order a sort may pick freely).
func TestSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200)
		in := make([]float64, n)
		for i := range in {
			// A small value set makes ties common.
			in[i] = float64(rng.Intn(40)-20) / 4
			if in[i] == 0 {
				in[i] = 0.125
			}
		}
		want := append([]float64(nil), in...)
		for i := 1; i < n; i++ {
			for j := i; j > 0 && want[j] < want[j-1]; j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
		if got := run(t, SortKernel{}, in); !sameBits(got, want) {
			t.Fatalf("n=%d: sort %v, reference %v", n, got, want)
		}
	}
}
