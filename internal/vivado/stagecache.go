package vivado

import (
	"fmt"
	"sync"
)

// StageCache is the content-addressed artifact cache behind incremental
// re-flow: where CheckpointCache holds synthesis checkpoints keyed by
// module content, StageCache holds the downstream stage results —
// floorplan solutions, routed-static and per-partition implementation
// results, bitstream images — keyed by digests the flow layer derives
// from the design, the cost model, and the upstream artifact keys. The
// cache itself is schema-agnostic: values are opaque JSON bodies that
// the flow layer encodes and decodes; the cache only moves bytes.
//
// Two tiers mirror CheckpointCache's shape: an in-memory map for the
// hot path, and an optional DiskStore (shared with the checkpoint tier,
// distinguished by file extension) so incremental hits survive process
// restarts. Lookups read through — a disk hit is promoted into memory —
// and stores write through. Entries are content-addressed, so the first
// store wins and a re-store of the same key is a no-op; there is no
// in-memory eviction (artifact bodies are small modelled results, and
// the disk tier has its own byte budget).
//
// All methods are safe for concurrent use.
type StageCache struct {
	mu      sync.Mutex
	entries map[string][]byte
	disk    *DiskStore

	hits   int64
	misses int64
}

// NewStageCache returns an empty, memory-only stage-artifact cache.
func NewStageCache() *StageCache {
	return &StageCache{entries: make(map[string][]byte)}
}

// SetDiskStore attaches (or with nil, detaches) the persistent tier.
// The store may be shared with a CheckpointCache — checkpoint and
// artifact entries use distinct file extensions and never collide.
func (sc *StageCache) SetDiskStore(ds *DiskStore) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.disk = ds
}

// Disk returns the attached persistent tier, or nil.
func (sc *StageCache) Disk() *DiskStore {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.disk
}

// Lookup fetches the artifact body stored under key, reading through to
// the disk tier (and promoting a disk hit into memory) when attached.
// The returned slice is shared — callers must not mutate it.
func (sc *StageCache) Lookup(key string) ([]byte, bool) {
	if key == "" {
		return nil, false
	}
	sc.mu.Lock()
	if body, ok := sc.entries[key]; ok {
		sc.hits++
		sc.mu.Unlock()
		return body, true
	}
	disk := sc.disk
	sc.mu.Unlock()
	// Disk I/O happens outside sc.mu: the store serializes internally,
	// and a concurrent Store of the same key is benign (same bytes).
	if disk != nil {
		if body, ok := artifactEntries.load(disk, key); ok {
			sc.mu.Lock()
			if _, present := sc.entries[key]; !present {
				sc.entries[key] = body
			}
			sc.hits++
			sc.mu.Unlock()
			return body, true
		}
	}
	sc.mu.Lock()
	sc.misses++
	sc.mu.Unlock()
	return nil, false
}

// Store records body under key, writing through to the disk tier when
// attached. Keys are content addresses: the first store wins, and
// storing an already-present key is a no-op. The body is retained as
// given — callers must not mutate it afterwards.
func (sc *StageCache) Store(key string, body []byte) error {
	if key == "" || len(body) == 0 {
		return fmt.Errorf("vivado: stage cache: empty key or body")
	}
	sc.mu.Lock()
	if _, present := sc.entries[key]; present {
		sc.mu.Unlock()
		return nil
	}
	sc.entries[key] = body
	disk := sc.disk
	sc.mu.Unlock()
	if disk != nil {
		return artifactEntries.store(disk, key, body)
	}
	return nil
}

// Stats returns the lookup hit/miss totals.
func (sc *StageCache) Stats() (hits, misses int64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.hits, sc.misses
}

// Len returns the number of artifacts held in memory.
func (sc *StageCache) Len() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.entries)
}
