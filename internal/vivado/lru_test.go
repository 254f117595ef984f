package vivado

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestCacheLRUEviction: a bounded cache drops the least-recently-used
// checkpoint first and counts the evictions.
func TestCacheLRUEviction(t *testing.T) {
	cache := NewCheckpointCache()
	cache.SetMaxEntries(2)
	tool := newTool(t)
	tool.SetCache(cache)
	synth := func(luts int) {
		t.Helper()
		if _, err := tool.Synthesize(context.Background(), testModule(fmt.Sprintf("m%d", luts), luts), true); err != nil {
			t.Fatal(err)
		}
	}
	synth(20000) // A
	synth(20001) // B
	synth(20000) // hit A -> A most recent, B is LRU
	synth(20002) // C evicts B
	if got := cache.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := cache.Evictions(); got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
	hits0, _ := cache.Stats()
	synth(20000) // A must still be cached
	if hits, _ := cache.Stats(); hits != hits0+1 {
		t.Fatal("most-recently-used entry was evicted instead of the LRU one")
	}
	synth(20001) // B was evicted: this is a miss
	_, misses := cache.Stats()
	if misses != 4 { // A, B, C cold misses + B re-synthesis
		t.Fatalf("misses = %d, want 4", misses)
	}
}

// insert lands a checkpoint named name under key through a flight.
func insert(t *testing.T, cache *CheckpointCache, key, name string) {
	t.Helper()
	if _, _, err := cache.materialize(key, func() (*SynthCheckpoint, error) {
		return &SynthCheckpoint{Name: name, Runtime: 1}, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheSetMaxEntriesShrinks: lowering the bound on a full cache
// evicts immediately; zero removes the bound.
func TestCacheSetMaxEntriesShrinks(t *testing.T) {
	cache := NewCheckpointCache()
	for i := 0; i < 5; i++ {
		insert(t, cache, fmt.Sprintf("k%d", i), fmt.Sprintf("m%d", i))
	}
	if cache.Len() != 5 || cache.Evictions() != 0 {
		t.Fatalf("unbounded cache evicted: len=%d evictions=%d", cache.Len(), cache.Evictions())
	}
	cache.SetMaxEntries(2)
	if cache.Len() != 2 {
		t.Fatalf("Len after shrink = %d, want 2", cache.Len())
	}
	if cache.Evictions() != 3 {
		t.Fatalf("Evictions after shrink = %d, want 3", cache.Evictions())
	}
	// The two most recently inserted entries survive.
	for _, k := range []string{"k3", "k4"} {
		if _, ok := cache.lookup(k); !ok {
			t.Fatalf("recent entry %s was evicted", k)
		}
	}
	cache.SetMaxEntries(0)
	for i := 5; i < 20; i++ {
		insert(t, cache, fmt.Sprintf("k%d", i), "m")
	}
	if cache.Len() != 17 {
		t.Fatalf("unbounding failed: len=%d, want 17", cache.Len())
	}
}

// TestFollowerHitRefreshesLRURecency: a follower served from a flight
// is an access like any other — it must refresh the entry's recency, so
// a heavily-followed key cannot be evicted ahead of colder entries.
//
// The test builds the racy interleaving by hand: a manually-opened
// flight guarantees the waiter can only be a follower (the key is not in
// entries, so it cannot hit; the flight exists, so it cannot lead), and
// the flight is landed together with a colder entry in one critical
// section, so when the follower wakes, "hot" is already the LRU victim.
// If the follower arrives too late it becomes a plain hit and the
// attempt retries — assertions only run on a genuine follower.
func TestFollowerHitRefreshesLRURecency(t *testing.T) {
	for try := 0; try < 50; try++ {
		cache := NewCheckpointCache()
		cache.SetMaxEntries(2)
		fl := &flight[*SynthCheckpoint]{done: make(chan struct{})}
		cache.mu.Lock()
		cache.inflight["hot"] = fl
		cache.mu.Unlock()

		roleCh := make(chan flightRole, 1)
		go func() {
			_, role, _ := cache.materialize("hot", func() (*SynthCheckpoint, error) {
				return nil, fmt.Errorf("waiter must not compute")
			})
			roleCh <- role
		}()
		time.Sleep(time.Millisecond) // give the waiter time to park

		// Land the flight the way a leader would, and age "hot" behind
		// "cold" before the follower can observe anything.
		cache.mu.Lock()
		fl.v, _ = cache.insertLocked("hot", &SynthCheckpoint{Name: "hot", Runtime: 1})
		delete(cache.inflight, "hot")
		cache.insertLocked("cold", &SynthCheckpoint{Name: "cold", Runtime: 1})
		close(fl.done)
		cache.mu.Unlock()

		if role := <-roleCh; role != roleFollower {
			continue // waiter arrived after the landing; retry the race
		}

		// The follower's hit refreshed "hot", so the next eviction must
		// take "cold".
		cache.mu.Lock()
		cache.insertLocked("new", &SynthCheckpoint{Name: "new", Runtime: 1})
		_, hotThere := cache.entries["hot"]
		_, coldThere := cache.entries["cold"]
		cache.mu.Unlock()
		if !hotThere {
			t.Fatal("followed key was evicted ahead of a colder entry")
		}
		if coldThere {
			t.Fatal("eviction dropped neither candidate — LRU bookkeeping broken")
		}
		return
	}
	t.Skip("could not park a follower in 50 attempts")
}
