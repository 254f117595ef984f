package vivado

import "fmt"

// StageCache is the content-addressed artifact cache behind incremental
// re-flow: where CheckpointCache holds synthesis checkpoints keyed by
// module content, StageCache holds the downstream stage results —
// floorplan solutions, routed-static and per-partition implementation
// results, bitstream images — keyed by digests the flow layer derives
// from the design, the cost model, and the upstream artifact keys.
//
// It is the stage instantiation of the package's one artifact store
// (store.go). The memory tier holds each stage's published Go value
// and its modelled minutes, and a memory hit serves that value itself —
// no copy, no decode — so every value handed to Store and every value
// LookupStage returns is shared and must never be mutated. The values
// include the multi-MB full-device image, which is why nothing is
// re-encoded on the memory path. JSON happens only at the disk tier
// (an optional DiskStore, usually shared with the checkpoint tier and
// distinguished by file extension): Store writes a fresh entry through
// as one {minutes, payload} body, and a memory miss decodes a verified
// disk entry straight into the caller's type and promotes it. There is
// no in-memory eviction; the disk tier has its own byte budget.
//
// All methods are safe for concurrent use.
type StageCache struct {
	*store[stageArtifact]
}

// NewStageCache returns an empty, memory-only stage-artifact cache.
func NewStageCache() *StageCache {
	return &StageCache{newStore(artifactEntries, nil)}
}

// Store records v, published with its modelled minutes, under key and
// writes it through to the disk tier when one is attached. Keys are
// content addresses: the first store wins, and storing an
// already-present key is a no-op. v is retained as given — callers
// must not mutate it afterwards. The error reports only a failed
// write-through; the memory tier always takes the value.
func (sc *StageCache) Store(key string, v any, minutes Minutes) error {
	if key == "" || v == nil {
		return fmt.Errorf("vivado: stage cache: empty key or value")
	}
	return sc.put(key, stageArtifact{value: v, minutes: minutes})
}

// LookupStage fetches the artifact stored under key as a T together
// with its modelled minutes. A memory hit returns the stored value
// itself; a memory miss reads through the disk tier, decoding the
// entry into a T in one pass and promoting it. An entry that fails to
// decode is quarantined like any damaged file, so a hit always carries
// a usable value and a miss is always counted as one.
func LookupStage[T any](sc *StageCache, key string) (T, Minutes, bool) {
	var zero T
	if key == "" {
		return zero, 0, false
	}
	a, _, err := sc.fetch(key, decodeArtifact[T], nil)
	if err != nil {
		return zero, 0, false
	}
	// Keys are framed by stage kind and every kind stores one type, so
	// the assertion only fails on a programming error.
	v, ok := a.value.(T)
	return v, a.minutes, ok
}
