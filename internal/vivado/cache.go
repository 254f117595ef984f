package vivado

import (
	"fmt"
	"math"

	"presp/internal/fpga"
	"presp/internal/rtl"
)

// CheckpointCache is a content-addressed store of synthesis checkpoints
// shared across tool instances and flow runs. A synthesis result is
// fully determined by the target device, the module hierarchy (names,
// interfaces, black-box structure and per-module resource costs), the
// out-of-context flag and the cost model's synthesis parameters — the
// cache key digests exactly those, so any change to a module's resources,
// its hierarchy, the device or the model invalidates the entry.
//
// It is the checkpoint instantiation of the package's one artifact
// store (store.go), which supplies the single-flight that collapses
// concurrent misses on one key into exactly one synthesis — every
// follower shares the leader's checkpoint or its error — and the
// optional persistent tier: the cache's owner may attach a DiskStore
// once (SetDiskStore); inserts then write through and a memory miss
// probes the disk inside the flight before paying the compute. The
// memory tier keeps every checkpoint it is given. Disk-served lookups
// count as hits — the whole point of the tier is that a restarted
// daemon's first submission costs file reads, not re-synthesis.
//
// The cache is safe for concurrent use by the flow's worker pool. Like
// every stage artifact, a checkpoint is served shared: the synthesis
// that computed it and every later hit get the one stored value, which
// nothing may write.
type CheckpointCache struct {
	*store[*SynthCheckpoint]
}

// NewCheckpointCache returns an empty, memory-only cache.
func NewCheckpointCache() *CheckpointCache {
	return &CheckpointCache{newStore(checkpointEntries)}
}

// Evictions always returns 0: the cache keeps every entry. It remains
// only for the benchmark harness, which still reports it.
func (c *CheckpointCache) Evictions() int64 { return 0 }

// checkpointKey digests everything a synthesis run depends on into an
// FNV-1a content hash: device identity and capacity, the cost model's
// synthesis-time parameters (a checkpoint's Runtime is model-dependent),
// the OoC flag and the full module hierarchy with per-module interfaces
// and resource signatures.
func checkpointKey(dev *fpga.Device, model *CostModel, m *rtl.Module, ooc bool) string {
	h := checkpointBasis
	h.Str(dev.Name)
	h.Res(dev.Total)
	h.F64(model.SynthBase)
	h.F64(model.SynthPerK)
	h.F64(model.SynthExp)
	h.F64(model.SynthOoCFactor)
	h.F64(model.JitterFrac)
	h.U64(model.JitterSeed)
	if ooc {
		h.Str("ooc")
	}
	m.Walk(func(path string, mod *rtl.Module) {
		h.Str(path)
		h.Str(mod.Name)
		if mod.BlackBox {
			h.Str("bb")
		}
		if mod.ClockModifying {
			h.Str("ckmod")
		}
		for _, p := range mod.Ports {
			h.Str(p.Name)
			h.U64(uint64(p.Dir))
			h.U64(uint64(p.Width))
			h.U64(uint64(p.Class))
		}
		h.Res(mod.Cost)
	})
	return h.Sum()
}

// Digest is the incremental FNV-1a 64-bit hasher behind every content
// address in the repository: synthesis-checkpoint keys, the flow's
// design digest and stage-artifact keys, and the server's single-flight
// spec keys. Strings are 0xff-terminated so ("ab","c") and ("a","bc")
// differ; numbers are written as 8-byte little-endian. Persisted cache
// entries are named by these sums, so the framing must never change.
type Digest uint64

// NewDigest returns a digest at the FNV-1a offset basis.
func NewDigest() *Digest {
	h := Digest(14695981039346656037)
	return &h
}

// checkpointBasis seeds checkpoint keys instead of the offset basis:
// it is the basis with its last digit dropped, a slip of the original
// checkpoint hasher that stays because every persisted checkpoint is
// named by a key derived from it.
const checkpointBasis Digest = 1469598103934665603

func (h *Digest) byte(b byte) {
	*h = (*h ^ Digest(b)) * 1099511628211
}

// Str writes s followed by the 0xff separator.
func (h *Digest) Str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0xff)
}

// U64 writes v as 8 little-endian bytes.
func (h *Digest) U64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

// F64 writes v's IEEE-754 bits.
func (h *Digest) F64(v float64) {
	h.U64(math.Float64bits(v))
}

// Flag writes v as the number 1 or 0.
func (h *Digest) Flag(v bool) {
	if v {
		h.U64(1)
	} else {
		h.U64(0)
	}
}

// Res writes every component of a resource vector.
func (h *Digest) Res(r fpga.Resources) {
	for _, n := range r {
		h.U64(uint64(n))
	}
}

// Sum returns the digest as 16 lower-case hex digits.
func (h *Digest) Sum() string { return fmt.Sprintf("%016x", uint64(*h)) }
