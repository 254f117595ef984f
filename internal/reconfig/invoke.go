package reconfig

import (
	"fmt"

	"presp/internal/faultinject"
	"presp/internal/noc"
	"presp/internal/sim"
)

// InvokeResult carries an accelerator invocation's outputs and timing.
type InvokeResult struct {
	// Out is the kernel output (functionally computed).
	Out [][]float64
	// Start and End bound the invocation in virtual time, including any
	// reconfiguration it had to wait for.
	Start, End sim.Time
	// Reconfigured reports whether the call triggered a partial
	// reconfiguration.
	Reconfigured bool
	// OnCPU reports software-fallback execution.
	OnCPU bool
}

// InvokeOn runs accelerator accName on reconfigurable tile tileName with
// the given inputs. If a different accelerator occupies the tile, the
// manager first swaps in the right bitstream (waiting in the workqueue
// behind other requests). done receives the result when the completion
// interrupt arrives.
//
// The timing model follows the loosely-coupled invocation path: config
// registers over the NoC, DMA load of the inputs from the memory tile,
// pipelined execution per the accelerator's latency model, DMA store of
// the outputs, completion interrupt to the processor.
func (r *Runtime) InvokeOn(tileName, accName string, in [][]float64, done func(*InvokeResult, error)) {
	if done == nil {
		done = func(*InvokeResult, error) {}
	}
	done = r.trackAppInvoke(done)
	r.wakeHealth()
	ts, err := r.tile(tileName)
	if err != nil {
		done(nil, err)
		return
	}
	desc, err := r.reg.Lookup(accName)
	if err != nil {
		done(nil, err)
		return
	}
	if desc.Kernel == nil {
		done(nil, fmt.Errorf("reconfig: accelerator %s has no functional model", accName))
		return
	}
	// Graceful degradation: a dead tile's kernels run on the processor.
	// The SoC stays usable — slower, but correct — which is the whole
	// point of the recovery machinery.
	if ts.dead {
		r.RunOnCPU(accName, in, done)
		return
	}
	start := r.eng.Now()
	needSwap := ts.loaded != accName

	// swapFailed handles a reconfiguration error on the invocation
	// path: if the failure killed the tile, degrade to the CPU
	// fallback instead of surfacing the error — otherwise propagate it
	// (the caller may retry; transient faults were already retried by
	// the manager's own policy).
	swapFailed := func(err error) {
		if ts.dead {
			r.RunOnCPU(accName, in, done)
			return
		}
		done(nil, err)
	}

	run := func() {
		// Re-check: another thread may have swapped the tile between
		// our wakeup and now.
		if ts.loaded != accName {
			r.RequestReconfig(tileName, accName, func(err error) {
				if err != nil {
					swapFailed(err)
					return
				}
				r.whenTileIdle(ts, func() { r.execute(ts, accName, in, start, true, done) })
			})
			return
		}
		r.execute(ts, accName, in, start, needSwap, done)
	}
	if needSwap {
		r.RequestReconfig(tileName, accName, func(err error) {
			if err != nil {
				swapFailed(err)
				return
			}
			r.whenTileIdle(ts, run)
		})
	} else {
		r.whenTileIdle(ts, run)
	}
}

// execute performs the invocation proper on a tile already holding the
// right accelerator.
func (r *Runtime) execute(ts *tileState, accName string, in [][]float64, start sim.Time, reconfigured bool, done func(*InvokeResult, error)) {
	if ts.loaded != accName || ts.busy || ts.reconfig {
		// State changed under us; retry through the lock.
		r.InvokeOn(ts.t.Name, accName, in, func(res *InvokeResult, err error) {
			if res != nil {
				res.Start = start
				res.Reconfigured = res.Reconfigured || reconfigured
			}
			done(res, err)
		})
		return
	}
	desc, err := r.reg.Lookup(accName)
	if err != nil {
		done(nil, err)
		return
	}
	ts.busy = true
	r.activeAccels++
	r.updateContentionPower()
	r.mustSetPower("tile."+ts.t.Name, desc.ActivePowerW)

	finish := func(res *InvokeResult, err error) {
		ts.busy = false
		r.activeAccels--
		r.updateContentionPower()
		r.setTileIdlePower(ts)
		if err == nil {
			r.stats.Invocations++
		}
		done(res, err)
		r.releaseTile(ts)
	}

	// Configuration writes (registers) and DMA load of the inputs.
	if _, err := r.net.Transfer(noc.PlaneConfig, r.cpuPos, ts.pos, 64); err != nil {
		finish(nil, err)
		return
	}
	inBytes := tensorBytes(in)
	loadDone, err := r.net.Transfer(noc.PlaneMemRsp, r.memPos, ts.pos, inBytes)
	if err != nil {
		finish(nil, err)
		return
	}
	// Execution latency from the accelerator's cycle model.
	items := largestTensor(in)
	cycles := desc.CyclesPerInvocation(items)
	execDur := sim.Clock(cycles, r.design.Cfg.FreqHz)
	if err := r.eng.At(loadDone+execDur, func() {
		// If the module was swapped out from under the invocation (only
		// possible in the UnsafeImmediateSwap ablation), the result is
		// garbage: abort with an error.
		if ts.loaded != accName || ts.reconfig {
			finish(nil, fmt.Errorf("reconfig: accelerator %s swapped out of tile %s mid-execution", accName, ts.t.Name))
			return
		}
		// Functional execution. An injected kernel fault models a
		// datapath error the accelerator's done register reports.
		if ferr := r.inj.Check(faultinject.OpKernel, accName, ts.t.Name); ferr != nil {
			finish(nil, ferr)
			return
		}
		out, kerr := desc.Kernel.Run(in)
		if kerr != nil {
			finish(nil, kerr)
			return
		}
		// DMA store and completion interrupt.
		storeDone, err := r.net.Transfer(noc.PlaneMemReq, ts.pos, r.memPos, tensorBytes(out))
		if err != nil {
			finish(nil, err)
			return
		}
		intrAt, err := r.net.Transfer(noc.PlaneInterrupt, ts.pos, r.cpuPos, 8)
		if err != nil {
			finish(nil, err)
			return
		}
		end := storeDone
		if intrAt > end {
			end = intrAt
		}
		if err := r.eng.At(end, func() {
			finish(&InvokeResult{Out: out, Start: start, End: r.eng.Now(), Reconfigured: reconfigured}, nil)
		}); err != nil {
			finish(nil, err)
		}
	}); err != nil {
		finish(nil, err)
	}
}

// RunOnCPU executes a kernel in software on the processor tile — the
// fallback for Fig 3 kernels without an allocated accelerator in the
// Table VI partitioning. The processor runs cpuSlowdown times slower
// than the accelerator's pipeline and serializes with other software
// kernels.
func (r *Runtime) RunOnCPU(accName string, in [][]float64, done func(*InvokeResult, error)) {
	if done == nil {
		done = func(*InvokeResult, error) {}
	}
	done = r.trackAppInvoke(done)
	r.wakeHealth()
	desc, err := r.reg.Lookup(accName)
	if err != nil {
		done(nil, err)
		return
	}
	if desc.Kernel == nil {
		done(nil, fmt.Errorf("reconfig: kernel %s has no functional model", accName))
		return
	}
	start := r.eng.Now()
	runNow := func() {
		r.cpuBusy = true
		r.mustSetPower("cpu", cpuPowerW)
		cycles := int64(float64(desc.CyclesPerInvocation(largestTensor(in))) * cpuSlowdown)
		dur := sim.Clock(cycles, r.design.Cfg.FreqHz)
		if err := r.eng.Schedule(dur, func() {
			out, kerr := desc.Kernel.Run(in)
			r.cpuBusy = false
			r.mustSetPower("cpu", 0)
			r.stats.CPUFallbacks++
			if kerr != nil {
				done(nil, kerr)
			} else {
				done(&InvokeResult{Out: out, Start: start, End: r.eng.Now(), OnCPU: true}, nil)
			}
			// Wake the next queued software kernel.
			if len(r.cpuWaiters) > 0 {
				next := r.cpuWaiters[0]
				r.cpuWaiters = r.cpuWaiters[1:]
				next()
			}
		}); err != nil {
			r.cpuBusy = false
			r.mustSetPower("cpu", 0)
			done(nil, err)
		}
	}
	if r.cpuBusy {
		r.cpuWaiters = append(r.cpuWaiters, runNow)
	} else {
		runNow()
	}
}

func tensorBytes(t [][]float64) int {
	n := 0
	for _, s := range t {
		n += len(s) * 8
	}
	if n == 0 {
		n = 8
	}
	return n
}

func largestTensor(t [][]float64) int {
	max := 0
	for _, s := range t {
		if len(s) > max {
			max = len(s)
		}
	}
	return max
}
