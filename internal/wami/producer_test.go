package wami

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"presp/internal/accel"
	"presp/internal/reconfig"
)

// TestRenderMatchesNextInAnyOrder renders a source's frames in a
// shuffled index order and compares each, bit for bit, with the frame
// Next returns at that index in order: a frame depends on its index
// alone, which is what lets the runner render ahead on a second
// goroutine.
func TestRenderMatchesNextInAnyOrder(t *testing.T) {
	const frames = 12
	rng := rand.New(rand.NewSource(90001))
	for _, n := range []int{16, 64} {
		seq, err := NewFrameSource(n, 0.7, -0.4, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]float64, frames)
		for i := range want {
			want[i] = seq.Next().Pix
		}
		if seq.FrameIndex() != frames {
			t.Fatalf("n=%d: FrameIndex %d after %d Next calls", n, seq.FrameIndex(), frames)
		}
		src, _ := NewFrameSource(n, 0.7, -0.4, 4)
		for _, idx := range rng.Perm(frames) {
			sameBits(t, fmt.Sprintf("n=%d frame %d", n, idx), src.render(idx).Pix, want[idx])
		}
		if src.FrameIndex() != 0 {
			t.Fatalf("n=%d: render advanced the source to %d", n, src.FrameIndex())
		}
	}
}

// faultyKernel counts its calls and, from call failFrom on (never when
// failFrom is 0), fails instead of running its kernel.
type faultyKernel struct {
	accel.Kernel
	calls, failFrom int
}

var errInjected = errors.New("injected kernel failure")

func (k *faultyKernel) Run(in [][]float64) ([][]float64, error) {
	k.calls++
	if k.failFrom > 0 && k.calls >= k.failFrom {
		return nil, errInjected
	}
	return k.Kernel.Run(in)
}

// wrapKernel replaces the registered kernel of accelerator idx in reg
// with a faultyKernel. The tile and the CPU fallback both run the
// registered kernel, so a failure cannot be absorbed by degrading.
func wrapKernel(t *testing.T, reg *accel.Registry, idx, failFrom int) *faultyKernel {
	t.Helper()
	d, err := reg.Lookup(Names[idx])
	if err != nil {
		t.Fatal(err)
	}
	k := &faultyKernel{Kernel: d.Kernel, failFrom: failFrom}
	d.Kernel = k
	return k
}

// TestProcessFramesErrorDrainsProducer makes Hessian fail from its third
// call on, so frame 3's setup chain fails on its tile and again on the
// CPU, and ProcessFrames must return the error. The source must have
// advanced by the front-ends the runner launched, as sequential Next
// calls would have left it, and the frames the producer had rendered
// ahead must go back to the free list intact: a clean run after the
// failed one is bit-identical to a clean run before it, final
// background plane included. Package leakcheck fails the run if the
// producer outlives ProcessFrames.
func TestProcessFramesErrorDrainsProducer(t *testing.T) {
	const frames = 8
	cfg, alloc, err := RuntimeSoC("SoC_X")
	if err != nil {
		t.Fatal(err)
	}
	// The subtest keeps the name of the sequential frame schedule it has
	// always driven, which is now the runner's only one.
	t.Run("pipelined=false", func(t *testing.T) {
		clean := func() (*RunReport, []float64) {
			runner, _ := boot(t, cfg, alloc, reconfig.DefaultConfig(), 1)
			src, err := NewFrameSource(64, EvalMotionX, EvalMotionY, EvalTargets)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runner.ProcessFrames(src, frames)
			if err != nil {
				t.Fatal(err)
			}
			return rep, runner.bg.Pix
		}
		wantRep, wantBg := clean()

		reg, err := Registry()
		if err != nil {
			t.Fatal(err)
		}
		debayer := wrapKernel(t, reg, KDebayer, 0)
		hessian := wrapKernel(t, reg, KHessian, 3)
		rt, _, err := Boot(cfg, alloc, reg, nil, reconfig.DefaultConfig(), true)
		if err != nil {
			t.Fatal(err)
		}
		pcfg := DefaultPipelineConfig()
		pcfg.LKIterations = 1
		runner, err := NewRunner(rt, alloc, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewFrameSource(64, EvalMotionX, EvalMotionY, EvalTargets)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runner.ProcessFrames(src, frames); !errors.Is(err, errInjected) {
			t.Fatalf("ProcessFrames returned %v, want the injected kernel failure", err)
		}
		if hessian.calls != 4 {
			t.Errorf("hessian ran %d times, want 4 (two clean frames, then tile and CPU)", hessian.calls)
		}
		// No tile fails here, so every launched front-end ran Debayer
		// exactly once.
		if got, launched := src.FrameIndex(), debayer.calls; got != launched || launched >= frames {
			t.Errorf("FrameIndex %d after %d front-ends of %d frames", got, launched, frames)
		}

		gotRep, gotBg := clean()
		if !reflect.DeepEqual(gotRep.Frames, wantRep.Frames) {
			t.Errorf("frames after the failed run differ from a clean run:\n got %+v\nwant %+v", gotRep.Frames, wantRep.Frames)
		}
		sameBits(t, "final background", gotBg, wantBg)
	})
}
