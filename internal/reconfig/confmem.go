// Configuration-memory health: the per-tile resident-image model, the
// seeded SEU process that corrupts it over virtual time, and the
// readback scrubber that detects corruption by CRC and repairs it by
// re-writing the golden partial bitstream through the normal ICAP path.
//
// The PR premise cuts both ways: partial reconfiguration lets the SoC
// rewrite configuration memory in the field, and configuration memory
// is exactly what radiation flips in the field. The standard mitigation
// — periodic readback scrubbing plus PR-based repair — is therefore a
// first-class runtime workload here, not a test fixture.
//
// Scheduling: the health subsystem is one self-rescheduling tick chain
// on the simulation engine. A free-running chain would keep the event
// queue non-empty forever and Engine.Run(0) — which every test and the
// application runner use to drain a workload — would never return. The
// chain therefore runs only while application requests (RequestReconfig
// / InvokeOn / RunOnCPU) are in flight, parking when the last one
// completes and unparking at the next entry point. Crucially, the
// scrubber's own repairs do not hold the chain open: a repair is ICAP
// traffic that keeps the event queue busy, so if repairs counted as
// activity, a sufficiently hot SEU storm would sample new upsets
// during its own repairs and sustain itself forever — the drain would
// never terminate. Parking is invisible to the fault schedule: a
// parked engine is an idle engine, virtual time does not advance, and
// no SEU sample ticks are skipped, only deferred.
package reconfig

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"time"

	"presp/internal/bitstream"
	"presp/internal/faultinject"
)

// defaultSEUCheckInterval is the per-tile config-memory sample period
// when neither SEUCheckInterval nor ScrubInterval pins one down.
const defaultSEUCheckInterval = 50 * time.Microsecond

// configMem models one tile's resident configuration memory: the
// golden image the ICAP last programmed plus the set of bit positions
// SEUs have flipped since. Upsets are tracked as a toggle set — a
// second flip of the same bit restores it, exactly like real config
// SRAM — and readback reconstructs the corrupted image on demand.
type configMem struct {
	golden    *bitstream.Bitstream
	goldenCRC uint32
	upsets    map[int]struct{}
}

func newConfigMem() *configMem {
	return &configMem{upsets: make(map[int]struct{})}
}

// program installs a freshly-ICAPed image. Programming rewrites every
// frame the image covers, so it clears all accumulated upsets — this is
// both what a repair does and why an ordinary demand swap incidentally
// heals a corrupted tile.
func (m *configMem) program(bs *bitstream.Bitstream) {
	m.golden = bs
	// Every image reaches the ICAP verified against its recorded
	// checksum (at fetch, or at registration for a boot image), so the
	// checksum is the payload's CRC; only an image without one is hashed.
	m.goldenCRC = bs.Checksum
	if m.goldenCRC == 0 {
		m.goldenCRC = bs.CRC()
	}
	m.upsets = make(map[int]struct{})
}

// bits returns the image size in bits (the SEU target space).
func (m *configMem) bits() int {
	if m.golden == nil {
		return 0
	}
	return len(m.golden.Data) * 8
}

// flip toggles one bit of the resident image.
func (m *configMem) flip(bit int) {
	if _, on := m.upsets[bit]; on {
		delete(m.upsets, bit)
		return
	}
	m.upsets[bit] = struct{}{}
}

// corrupted reports whether the resident image differs from golden.
func (m *configMem) corrupted() bool { return len(m.upsets) > 0 }

// readback reconstructs the resident image as configuration readback
// would see it: the golden payload with every upset bit applied.
func (m *configMem) readback() []byte {
	out := make([]byte, len(m.golden.Data))
	copy(out, m.golden.Data)
	for bit := range m.upsets {
		if byteIdx := bit / 8; byteIdx < len(out) {
			out[byteIdx] ^= 1 << (bit % 8)
		}
	}
	return out
}

// readbackCRC is the CRC-32 of the readback image — what the scrubber
// compares against the golden CRC. Any odd number of flipped bits
// changes a CRC-32, so detection never misses live corruption.
func (m *configMem) readbackCRC() uint32 {
	if !m.corrupted() {
		return m.goldenCRC
	}
	return crc32.ChecksumIEEE(m.readback())
}

// frameBits is the bit width of one configuration frame in this image.
func (m *configMem) frameBits() int {
	if m.golden == nil || m.golden.Frames <= 0 {
		return 0
	}
	fb := m.bits() / m.golden.Frames
	if fb <= 0 {
		fb = 1
	}
	return fb
}

// upsetFrames counts the distinct configuration frames holding at
// least one upset bit — the frame-granular damage extent.
func (m *configMem) upsetFrames() int {
	fb := m.frameBits()
	if fb == 0 {
		return 0
	}
	frames := make(map[int]struct{}, len(m.upsets))
	for bit := range m.upsets {
		frames[bit/fb] = struct{}{}
	}
	return len(frames)
}

// ScrubStats aggregates the configuration-memory health counters.
type ScrubStats struct {
	// Cycles counts completed scrub passes over all tiles.
	Cycles int
	// Checks counts per-tile readback CRC comparisons.
	Checks int
	// Upsets counts injected SEU bit flips delivered to resident images.
	Upsets int
	// Detected counts tiles a scrub pass found corrupted.
	Detected int
	// Repaired counts repairs completed by re-writing the golden
	// partial bitstream through the ICAP.
	Repaired int
	// Healed counts detections whose corruption was gone by the time
	// the repair reached the tile — a demand swap reprogrammed the
	// partition first, or a second SEU flipped the same bit back.
	Healed int
	// Uncorrectable counts repairs that failed after exhausting the
	// manager's retry policy; repeated uncorrectable repairs escalate
	// to ErrTileDead through the ordinary dead-tile machinery.
	Uncorrectable int
}

// ConfigHealth is one tile's configuration-memory state snapshot.
type ConfigHealth struct {
	// Tile and Loaded identify the partition and its resident module.
	Tile, Loaded string
	// Frames is the configuration frame count of the resident image
	// (zero before the first program).
	Frames int
	// UpsetBits and UpsetFrames measure live corruption.
	UpsetBits, UpsetFrames int
	// GoldenCRC and ReadbackCRC are the programmed image's CRC-32 and
	// the CRC-32 configuration readback sees now; they differ exactly
	// when Corrupted.
	GoldenCRC, ReadbackCRC uint32
	// Corrupted reports a golden/readback mismatch.
	Corrupted bool
	// RepairPending reports a detected upset whose repair has not
	// completed yet.
	RepairPending bool
}

// ConfigHealth returns the tile's configuration-memory snapshot.
func (r *Runtime) ConfigHealth(tileName string) (ConfigHealth, error) {
	ts, err := r.tile(tileName)
	if err != nil {
		return ConfigHealth{}, err
	}
	h := ConfigHealth{Tile: tileName, Loaded: ts.loaded, RepairPending: ts.repairPending}
	if ts.mem == nil || ts.mem.golden == nil {
		return h, nil
	}
	h.Frames = ts.mem.golden.Frames
	h.UpsetBits = len(ts.mem.upsets)
	h.UpsetFrames = ts.mem.upsetFrames()
	h.GoldenCRC = ts.mem.goldenCRC
	h.ReadbackCRC = ts.mem.readbackCRC()
	h.Corrupted = ts.mem.corrupted()
	return h, nil
}

// ScrubStats returns a snapshot of the scrubber counters.
func (r *Runtime) ScrubStats() ScrubStats { return r.stats.Scrub }

// planHasSEU reports whether any rule targets config memory.
func planHasSEU(p *faultinject.Plan) bool {
	if p == nil {
		return false
	}
	for _, rule := range p.Rules {
		if rule.Op == faultinject.OpSEU {
			return true
		}
	}
	return false
}

// seuBit picks the bit an SEU flips: a pure hash of (seed, tile, tick
// ordinal) over the image's bit space. Like the StableInjector's
// draws, the choice depends on nothing that happened on other tiles,
// so the corruption pattern — and therefore every post-repair CRC — is
// identical for any flow worker count and any event interleaving.
func seuBit(seed uint64, tileName string, ordinal int64, bits int) int {
	if bits <= 0 {
		return 0
	}
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], seed)
	h.Write(buf[:])
	h.Write([]byte(tileName))
	h.Write([]byte{0xff})
	binary.LittleEndian.PutUint64(buf[:], uint64(ordinal))
	h.Write(buf[:])
	return int(h.Sum64() % uint64(bits))
}

// wakeHealth unparks the health tick chain. Every runtime entry point
// calls it; while the chain is live the call is a no-op.
func (r *Runtime) wakeHealth() {
	if !r.healthArmed || r.healthScheduled {
		return
	}
	r.healthScheduled = true
	if err := r.eng.Schedule(r.seuTick, r.healthTick); err != nil {
		r.healthScheduled = false
	}
}

// healthTick is one config-memory sample: deliver due SEUs, run a
// scrub pass every scrubEvery-th tick, then re-arm — but only while
// application requests are still in flight. Repairs spawned by this
// very tick do not count (see the file comment: a storm must not
// sustain itself through its own repair traffic); they finish on
// whatever events they already scheduled after the chain parks.
func (r *Runtime) healthTick() {
	r.healthScheduled = false
	r.healthTickNo++
	r.seuPass()
	if r.scrubEvery > 0 && r.healthTickNo%int64(r.scrubEvery) == 0 {
		r.scrubPass()
	}
	if r.appInFlight > 0 && r.eng.Pending() > 0 {
		r.wakeHealth()
	}
}

// seuPass samples every tile's config memory once against the seu
// rules. Tiles mid-reconfiguration are skipped: the ICAP is rewriting
// their frames, and the swap installs a fresh image anyway. Dead and
// never-programmed tiles have no resident image to corrupt.
func (r *Runtime) seuPass() {
	if r.seuInj == nil {
		return
	}
	for _, name := range r.tileNames {
		ts := r.tiles[name]
		if ts.mem == nil || ts.mem.golden == nil || ts.dead || ts.reconfig || ts.loaded == "" {
			continue
		}
		if ferr := r.seuInj.Check(faultinject.OpSEU, name, ts.loaded); ferr != nil {
			bit := seuBit(r.seuSeed, name, r.healthTickNo, ts.mem.bits())
			ts.mem.flip(bit)
			r.stats.Scrub.Upsets++
			r.mScrubUpsets.Inc()
			if r.tr != nil {
				r.tr.InstantAt("scrub", "seu "+name, r.tileTID[name], vusec(r.eng.Now()),
					map[string]any{"bit": bit, "upset_bits": len(ts.mem.upsets)})
			}
		}
	}
}

// scrubPass is one readback cycle: compare every eligible tile's
// readback CRC against its golden CRC and schedule a repair on
// mismatch. Tiles with a repair already pending are skipped so one
// upset is detected once, not once per cycle until the repair lands.
func (r *Runtime) scrubPass() {
	r.stats.Scrub.Cycles++
	r.mScrubCycles.Inc()
	for _, name := range r.tileNames {
		ts := r.tiles[name]
		if ts.mem == nil || ts.mem.golden == nil || ts.dead || ts.reconfig || ts.repairPending {
			continue
		}
		r.stats.Scrub.Checks++
		if ts.mem.readbackCRC() == ts.mem.goldenCRC {
			continue
		}
		r.stats.Scrub.Detected++
		r.mScrubDetected.Inc()
		ts.repairPending = true
		ts.detectedAt = r.eng.Now()
		if r.tr != nil {
			r.tr.InstantAt("scrub", "detect "+name, r.tileTID[name], vusec(r.eng.Now()),
				map[string]any{"upset_bits": len(ts.mem.upsets), "upset_frames": ts.mem.upsetFrames(),
					"readback_crc": ts.mem.readbackCRC(), "golden_crc": ts.mem.goldenCRC})
		}
		r.scheduleRepair(ts, name)
	}
}

// scheduleRepair queues a PR-based repair: re-write the golden partial
// bitstream of the module the tile holds through the ordinary
// workqueue. The repair waits for the tile to drain (an executing
// accelerator finishes first) and for the single PRC (an in-flight
// demand reconfiguration completes first) — the same arbitration every
// swap obeys, which is what keeps scrub-vs-reconfig interleaving
// deterministic. Failures funnel through failReconfig, so the retry,
// backoff and dead-tile escalation policies apply to repairs verbatim.
func (r *Runtime) scheduleRepair(ts *tileState, tileName string) {
	accName := ts.loaded
	detectedAt := ts.detectedAt
	done := func(err error) {
		ts.repairPending = false
		if err != nil {
			r.stats.Scrub.Uncorrectable++
			r.mScrubUncorrectable.Inc()
			if r.tr != nil {
				r.tr.InstantAt("scrub", "uncorrectable "+tileName, r.tileTID[tileName],
					vusec(r.eng.Now()), map[string]any{"error": err.Error()})
			}
			return
		}
		r.stats.Scrub.Repaired++
		r.mScrubRepaired.Inc()
		mttr := r.eng.Now() - detectedAt
		r.hScrubMTTR.Observe(float64(mttr.Microseconds()))
		if r.tr != nil {
			r.tr.InstantAt("scrub", "repair "+tileName, r.tileTID[tileName],
				vusec(r.eng.Now()), map[string]any{"accelerator": accName, "mttr_usec": mttr.Microseconds()})
		}
	}
	r.whenTileIdle(ts, func() {
		if ts.dead {
			done(&ErrTileDead{Tile: tileName})
			return
		}
		if ts.loaded != accName || ts.mem == nil || !ts.mem.corrupted() {
			// Superseded: a demand swap reprogrammed the partition while
			// the repair waited, or a later SEU flipped the bit back.
			// Either way config memory matches golden again — count the
			// heal, skip the ICAP traffic.
			ts.repairPending = false
			r.stats.Scrub.Healed++
			r.mScrubHealed.Inc()
			return
		}
		// Enqueue directly: RequestReconfig would short-circuit a request
		// for the module the tile already holds, and a repair is exactly
		// that — same module, fresh frames.
		ts.reconfig = true
		ts.pending = accName
		r.workqueue = append(r.workqueue, &request{tileName: tileName, accName: accName, repair: true, done: done})
		r.pumpWorkqueue()
	})
}

// armHealth wires the health subsystem during New: resolve the tick
// period, the scrub cadence and the SEU injector. The chain itself
// starts parked; the first runtime entry point unparks it.
func (r *Runtime) armHealth() error {
	hasSEU := planHasSEU(r.cfg.FaultPlan)
	if r.cfg.ScrubInterval <= 0 && !hasSEU {
		return nil
	}
	r.seuTick = r.cfg.SEUCheckInterval
	if r.seuTick <= 0 {
		if r.cfg.ScrubInterval > 0 {
			r.seuTick = r.cfg.ScrubInterval / 4
		}
		if r.seuTick <= 0 {
			r.seuTick = defaultSEUCheckInterval
		}
	}
	if r.cfg.ScrubInterval > 0 {
		r.scrubEvery = int((r.cfg.ScrubInterval + r.seuTick - 1) / r.seuTick)
		if r.scrubEvery < 1 {
			r.scrubEvery = 1
		}
	}
	if hasSEU {
		inj, err := faultinject.NewStable(*r.cfg.FaultPlan)
		if err != nil {
			return err
		}
		r.seuInj = inj
		r.seuSeed = r.cfg.FaultPlan.Seed
	}
	r.healthArmed = true
	return nil
}
