package reconfig

import (
	"fmt"
	"math"

	"presp/internal/faultinject"
	"presp/internal/fpga"
	"presp/internal/noc"
	"presp/internal/sim"
)

// ErrTileDead reports a request against a tile the manager has declared
// dead after repeated reconfiguration failures.
type ErrTileDead struct {
	Tile string
}

// Error implements error.
func (e *ErrTileDead) Error() string {
	return fmt.Sprintf("reconfig: tile %s is dead (repeated reconfiguration failures)", e.Tile)
}

// RequestReconfig asks the manager to load accName into tileName. The
// request is queued on the kernel workqueue and executed as soon as the
// PRC is ready (Section V); before queueing, the manager waits for the
// accelerator currently in the tile to complete its execution. done is
// called (in virtual time) when the new driver is bound.
func (r *Runtime) RequestReconfig(tileName, accName string, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	done = r.trackApp(done)
	r.wakeHealth()
	ts, err := r.tile(tileName)
	if err != nil {
		done(err)
		return
	}
	if ts.dead {
		done(&ErrTileDead{Tile: tileName})
		return
	}
	if _, ok := ts.bitstream[accName]; !ok {
		done(fmt.Errorf("reconfig: no bitstream registered for %s on tile %s", accName, tileName))
		return
	}
	if ts.loaded == accName && !ts.reconfig {
		done(nil) // already configured
		return
	}
	if ts.pending == accName {
		// A swap to the same module is already queued or in flight:
		// coalesce instead of programming the partition twice.
		r.whenTileIdle(ts, func() {
			if ts.loaded == accName {
				done(nil)
				return
			}
			// The coalesced swap was displaced; re-request.
			r.RequestReconfig(tileName, accName, done)
		})
		return
	}
	enqueue := func() {
		// Lock the device: other threads block until the interrupt
		// arrives and the new driver is loaded.
		ts.reconfig = true
		ts.pending = accName
		r.workqueue = append(r.workqueue, &request{tileName: tileName, accName: accName, done: done})
		r.pumpWorkqueue()
	}
	if r.cfg.UnsafeImmediateSwap {
		// Ablation mode: swap without draining. Any invocation still
		// executing on the tile will be aborted when the module under
		// it changes.
		enqueue()
		return
	}
	// Force the caller to wait until the accelerator drains.
	r.whenTileIdle(ts, enqueue)
}

// whenTileIdle runs fn once the tile is neither executing nor
// reconfiguring.
func (r *Runtime) whenTileIdle(ts *tileState, fn func()) {
	if !ts.busy && !ts.reconfig {
		fn()
		return
	}
	ts.waiters = append(ts.waiters, fn)
}

// releaseTile wakes every waiter of ts (they re-check state themselves).
func (r *Runtime) releaseTile(ts *tileState) {
	waiters := ts.waiters
	ts.waiters = nil
	for _, w := range waiters {
		w := w
		// Re-enter through whenTileIdle so a waiter that re-busies the
		// tile makes the rest re-queue.
		if err := r.eng.Schedule(0, func() { r.whenTileIdle(ts, w) }); err != nil {
			w()
		}
	}
}

// pumpWorkqueue starts the next queued reconfiguration when the PRC is
// free. Reconfiguration requests are executed one at a time: the SoC has
// a single DFXC/ICAP pair.
func (r *Runtime) pumpWorkqueue() {
	if r.prcBusy || len(r.workqueue) == 0 {
		return
	}
	req := r.workqueue[0]
	r.workqueue = r.workqueue[1:]
	r.prcBusy = true
	r.executeReconfig(req)
}

// vusec converts a virtual timestamp to trace microseconds. Runtime
// trace events carry sim.Time, not wall time: the trace is a picture
// of the simulated schedule, identical across runs and host speeds.
func vusec(t sim.Time) int64 { return t.Microseconds() }

// traceReconfigSpan records one completed (or finally-failed)
// reconfiguration on the tile's trace lane, plus its fetch/ICAP
// sub-spans recorded separately by attemptReconfig.
func (r *Runtime) traceReconfigSpan(ts *tileState, req *request, start sim.Time, attempt int, bytes int, failErr error) {
	if r.tr == nil {
		return
	}
	args := map[string]any{
		"accelerator": req.accName,
		"attempts":    attempt,
	}
	if req.repair {
		args["repair"] = true
	}
	if bytes > 0 {
		args["bytes"] = bytes
	}
	if failErr != nil {
		args["error"] = failErr.Error()
	}
	// Durations are differences of floored endpoints (not floored
	// differences) so nested sub-spans can never extend past this span
	// by a truncated microsecond.
	r.tr.Complete("reconfig", req.tileName+"<-"+req.accName, r.tileTID[req.tileName],
		vusec(start), vusec(r.eng.Now())-vusec(start), args)
}

// executeReconfig performs the hardware sequence of one partial
// reconfiguration:
//
//  1. the driver engages the tile's decoupler (also gating its NoC
//     queues),
//  2. the DFXC fetches the bitstream from memory over the NoC DMA
//     plane, and the manager CRC-checks the fetched image,
//  3. the ICAP programs the partition,
//  4. the DFXC raises an interrupt; the handler disengages the decoupler
//     (resetting the queues), swaps the driver and unlocks the device.
//
// Any step can fail (a faulted transfer, a stuck decoupler, a corrupted
// fetch, an ICAP error). Every failure funnels through failReconfig,
// which first restores the tile to a safe state via recoverTile and
// then either retries the whole sequence — transient faults — or gives
// up and reports the error.
func (r *Runtime) executeReconfig(req *request) {
	r.attemptReconfig(req, r.eng.Now(), 1)
}

// attemptReconfig runs one hardware attempt. start is the virtual time
// the request left the workqueue; retries extend the same timeline
// event. attempt counts from 1.
func (r *Runtime) attemptReconfig(req *request, start sim.Time, attempt int) {
	ts := r.tiles[req.tileName]
	bs := ts.bitstream[req.accName]
	// Re-assert the swap-in-progress lock: recovery from an earlier
	// attempt cleared it so the tile never looks wedged between
	// attempts.
	ts.reconfig = true
	if ts.pending == "" {
		ts.pending = req.accName
	}

	fail := func(err error) { r.failReconfig(req, ts, start, attempt, err) }

	// Step 1: decouple.
	if err := r.net.Decouple(ts.pos); err != nil {
		fail(err)
		return
	}
	r.mustSetPower("prc", reconfigPowerW)
	if err := r.eng.Schedule(decoupleDelay, func() {
		// Step 2: DFXC DMA fetch (memory tile -> auxiliary tile).
		plane := noc.PlaneDMA
		if r.cfg.SharedDMAPlane {
			plane = noc.PlaneMemRsp
		}
		fetchStart := r.eng.Now()
		arrive, err := r.net.Transfer(plane, r.memPos, r.auxPos, bs.Size())
		if err != nil {
			fail(err)
			return
		}
		if r.tr != nil {
			r.tr.Complete("reconfig", "fetch", r.tileTID[req.tileName],
				vusec(fetchStart), vusec(arrive)-vusec(fetchStart),
				map[string]any{"bytes": bs.Size(), "plane": plane.String()})
		}
		// The fetched image is CRC-checked on arrival, before the ICAP
		// consumes it. An injected fetch fault delivers a corrupted
		// copy, which the real verification machinery then catches.
		fetched := bs
		if ferr := r.faultCheck(faultinject.OpFetchCRC, req.tileName, req.accName); ferr != nil {
			fetched = bs.CorruptedCopy(attempt)
		}
		if verr := fetched.Verify(); verr != nil {
			if aerr := r.eng.At(arrive, func() { fail(verr) }); aerr != nil {
				fail(aerr)
			}
			return
		}
		// Step 3: ICAP programming overlaps the tail of the fetch; the
		// slower of the two paths bounds completion.
		icap := r.icapTime(bs.Size())
		finish := arrive + icap
		if err := r.eng.At(finish, func() {
			if r.tr != nil {
				r.tr.Complete("reconfig", "icap", r.tileTID[req.tileName],
					vusec(arrive), vusec(finish)-vusec(arrive),
					map[string]any{"bytes": bs.Size()})
			}
			if ferr := r.faultCheck(faultinject.OpICAP, req.tileName, req.accName); ferr != nil {
				fail(ferr)
				return
			}
			// Step 4: interrupt to the processor.
			intrAt, err := r.net.Transfer(noc.PlaneInterrupt, r.auxPos, r.cpuPos, 8)
			if err != nil {
				fail(err)
				return
			}
			if err := r.eng.At(intrAt+driverSwapDelay, func() {
				// Handler: disengage decoupler, reset queues, swap driver.
				if err := r.net.Recouple(ts.pos); err != nil {
					fail(err)
					return
				}
				ts.loaded = req.accName
				ts.driver = req.accName
				ts.programConfigMem(bs)
				ts.reconfig = false
				ts.failures = 0
				if ts.pending == req.accName {
					ts.pending = ""
				}
				r.prcBusy = false
				r.mustSetPower("prc", 0)
				r.setTileIdlePower(ts)
				r.stats.Reconfigurations++
				r.stats.ReconfigTime += r.eng.Now() - start
				r.stats.BytesConfigured += int64(bs.Size())
				r.mReconfigs.Inc()
				r.mBytes.Add(int64(bs.Size()))
				r.traceReconfigSpan(ts, req, start, attempt, bs.Size(), nil)
				r.timeline = append(r.timeline, TimelineEvent{
					Start: start, End: r.eng.Now(),
					Tile: ts.t.Name, Accel: req.accName,
					Bytes: bs.Size(), Attempts: attempt,
					Repair: req.repair,
				})
				req.done(nil)
				r.releaseTile(ts)
				r.pumpWorkqueue()
			}); err != nil {
				fail(err)
			}
		}); err != nil {
			fail(err)
		}
	}); err != nil {
		fail(err)
	}
}

// recoverTile restores a tile to a safe, usable state after a failed
// reconfiguration attempt: force the decoupler open (the PRC reset
// line — a normal disengage cannot be trusted on this path), drop the
// PRC power rail, restore the tile's idle power and clear the
// swap-in-progress state. After recoverTile the tile is exactly as
// usable as before the attempt: nothing is gated, nothing leaks power,
// and a later RequestReconfig or InvokeOn proceeds normally.
func (r *Runtime) recoverTile(ts *tileState, accName string) {
	if r.net.Decoupled(ts.pos) {
		r.net.ResetTile(ts.pos)
	}
	ts.reconfig = false
	if accName == "" || ts.pending == accName {
		ts.pending = ""
	}
	r.mustSetPower("prc", 0)
	r.setTileIdlePower(ts)
}

// failReconfig is the single failure path of executeReconfig: recover
// the tile, then retry (bounded, with linear backoff) or report.
func (r *Runtime) failReconfig(req *request, ts *tileState, start sim.Time, attempt int, err error) {
	r.recoverTile(ts, req.accName)
	if attempt <= r.cfg.MaxReconfigRetries && !ts.dead {
		// Transient-fault policy: the whole hardware sequence re-runs
		// after a backoff proportional to the attempt number. The PRC
		// stays busy, so queued requests cannot interleave with the
		// retry.
		r.stats.Retries++
		r.mRetries.Inc()
		if r.tr != nil {
			r.tr.InstantAt("reconfig", "retry "+req.tileName, r.tileTID[req.tileName],
				vusec(r.eng.Now()), map[string]any{"attempt": attempt, "error": err.Error()})
		}
		backoff := retryBackoff * sim.Time(attempt)
		if serr := r.eng.Schedule(backoff, func() { r.attemptReconfig(req, start, attempt+1) }); serr == nil {
			return
		}
		// Could not schedule the retry; fall through to a hard failure.
	}
	r.stats.FailedReconfigs++
	r.mFailures.Inc()
	ts.failures++
	if r.cfg.TileDeadThreshold > 0 && ts.failures >= r.cfg.TileDeadThreshold && !ts.dead {
		ts.dead = true
		r.stats.DeadTiles++
		r.mDeadTiles.Inc()
		if r.tr != nil {
			r.tr.InstantAt("reconfig", "tile dead "+req.tileName, r.tileTID[req.tileName],
				vusec(r.eng.Now()), map[string]any{"failures": ts.failures})
		}
	}
	r.traceReconfigSpan(ts, req, start, attempt, 0, err)
	r.timeline = append(r.timeline, TimelineEvent{
		Start: start, End: r.eng.Now(),
		Tile: ts.t.Name, Accel: req.accName,
		Attempts: attempt, Failed: true, Err: err.Error(),
		Repair: req.repair,
	})
	r.prcBusy = false
	req.done(err)
	r.releaseTile(ts)
	r.pumpWorkqueue()
}

// icapTime returns the ICAP programming time for a stored image of the
// given size. Compressed images program faster: multi-frame writes skip
// repeated frames, which is exactly why the flow enables compression.
func (r *Runtime) icapTime(bytes int) sim.Time {
	bw := r.cfg.ICAPEffectiveBps
	if bw <= 0 {
		bw = r.design.Dev.ICAPBandwidth
	}
	if bw <= 0 {
		bw = 400e6
	}
	sec := float64(bytes) / bw
	return sim.Time(sec * 1e9)
}

// Prefetch asks the manager to opportunistically load accName into the
// tile ahead of its next use. The request goes through the same
// workqueue as demand reconfigurations; if the guess is wrong, the
// demand path simply swaps again. A failed speculative load is not an
// application error — no caller waits on it — but it must not vanish
// either: the manager counts it in Stats.PrefetchErrors, and by the
// time the callback runs the recovery path has already restored the
// tile, so the failure leaves no residue.
func (r *Runtime) Prefetch(tileName, accName string) {
	r.RequestReconfig(tileName, accName, func(err error) {
		if err != nil {
			r.stats.PrefetchErrors++
		}
	})
}

// updateLeakagePower re-evaluates the configured-fabric leakage from
// the total pblock area currently holding loaded modules. The fold
// runs over the sorted tile-name slice: float addition is not
// associative, so summing in map iteration order would perturb the
// leakage term — and every energy figure derived from it — from run
// to run.
func (r *Runtime) updateLeakagePower() {
	var areaK float64
	loaded := 0
	for _, name := range r.tileNames {
		ts := r.tiles[name]
		if ts.loaded != "" {
			areaK += float64(ts.pblock.ResourcesOn(r.design.Dev)[fpga.LUT]) / 1000.0
			loaded++
		}
	}
	p := leakagePerKLUTW*math.Pow(areaK, leakageExponent) + perTilePowerW*float64(loaded)
	r.mustSetPower("leakage", p)
}

// setTileIdlePower applies the clock-tree power of a configured, idle
// accelerator and refreshes the global leakage term.
func (r *Runtime) setTileIdlePower(ts *tileState) {
	r.updateLeakagePower()
	if ts.loaded == "" {
		r.mustSetPower("tile."+ts.t.Name, 0)
		return
	}
	desc, err := r.reg.Lookup(ts.loaded)
	if err != nil {
		r.mustSetPower("tile."+ts.t.Name, 0)
		return
	}
	r.mustSetPower("tile."+ts.t.Name, desc.ActivePowerW*idlePowerFraction)
}

func (r *Runtime) mustSetPower(name string, w float64) {
	if err := r.meter.SetPower(name, w); err != nil {
		panic(fmt.Sprintf("reconfig: power bookkeeping: %v", err))
	}
	// Each power rail becomes a Chrome-trace counter track sampled at
	// every level change, in virtual time.
	if r.tr != nil {
		r.tr.CounterSampleAt("power "+name, vusec(r.eng.Now()), map[string]float64{"watts": w})
	}
}

// updateContentionPower re-evaluates the superlinear uncore power term
// from the count of concurrently active accelerators: k concurrent
// masters draw contentionPowerW·k·(k-1) beyond their own datapaths (the
// excess models DRAM/NoC contention — retries, stalls and arbitration
// burn energy only when masters actually collide).
func (r *Runtime) updateContentionPower() {
	k := float64(r.activeAccels)
	if k < 1 {
		k = 0
	}
	r.mustSetPower("uncore", contentionPowerW*k*(k-1))
}
