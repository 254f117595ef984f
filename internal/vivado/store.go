package vivado

import (
	"errors"
	"sync"
)

// store is the one content-addressed artifact store behind
// CheckpointCache and StageCache: one mutex-guarded map, one
// single-flight, one hit/miss counter pair, and one disk read-through
// and write-through path over an optional DiskStore. The memory tier
// keeps every entry for the life of the store; the disk tier has its
// own byte budget.
//
// The memory tier holds decoded values. Encoding happens only at the
// disk boundary — on write-through of a fresh entry and on promotion
// from disk — one pass per direction. Keys are content addresses, so
// the first value stored under a key wins and a re-store is a no-op.
//
// clone, when set, copies values on the way in and out of the store
// (checkpoints are mutable structs handed to callers); without it the
// stored value itself is served to every caller, who must treat it as
// immutable.
type store[V any] struct {
	kind  diskKind[V]
	clone func(V) V

	mu       sync.Mutex
	entries  map[string]V
	inflight map[string]*flight[V]
	disk     *DiskStore
	hits     int64
	misses   int64
}

// flight is one in-progress fetch: the leader probes the disk tier and
// computes, the followers wait on done and read v/err.
type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// flightRole reports how a fetch was served.
type flightRole int

const (
	// roleHit: the value was already cached, in memory or on disk.
	roleHit flightRole = iota
	// roleLeader: this caller found the key in neither tier (a true
	// miss) and ran compute, if any.
	roleLeader
	// roleFollower: another caller was already fetching the same key;
	// this one shared its outcome.
	roleFollower
)

// errMiss closes the flight of a pure lookup (no compute) that found
// its key in neither tier.
var errMiss = errors.New("vivado: not cached")

func newStore[V any](kind diskKind[V], clone func(V) V) *store[V] {
	return &store[V]{
		kind:     kind,
		clone:    clone,
		entries:  make(map[string]V),
		inflight: make(map[string]*flight[V]),
	}
}

// SetDiskStore attaches the persistent tier (nil detaches): inserts
// write through to it and misses read through it. One DiskStore may
// back both caches — checkpoint and stage entries use distinct file
// extensions. The cache's owner attaches it once, before sharing the
// cache across goroutines or runs; swapping stores mid-traffic is safe
// but pointless.
func (s *store[V]) SetDiskStore(ds *DiskStore) {
	s.mu.Lock()
	s.disk = ds
	s.mu.Unlock()
}

// Disk returns the attached persistent tier (nil when the cache is
// memory-only).
func (s *store[V]) Disk() *DiskStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.disk
}

// Stats returns the cumulative hit and miss counts. Disk-served
// lookups count as hits.
func (s *store[V]) Stats() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// Len returns the number of entries held in memory.
func (s *store[V]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// copy applies the store's clone policy.
func (s *store[V]) copy(v V) V {
	if s.clone == nil {
		return v
	}
	return s.clone(v)
}

// fetch returns the value under key. A memory entry is served
// immediately (roleHit). Otherwise the first caller opens a flight:
// with a disk tier attached it probes the store, decoding the entry
// body with decode — a verified disk entry is promoted into memory and
// served as a hit (roleHit) — and only a two-tier miss makes it the
// leader (roleLeader): it counts the miss, runs compute outside the
// lock and publishes the result — stored on success (write-through to
// the disk tier), discarded on error. A nil compute makes fetch a pure
// lookup whose two-tier miss ends the flight with errMiss.
//
// Callers that arrive while the flight is open (roleFollower) wait and
// share its outcome: a stored value counts as a hit for each follower,
// errMiss as a miss, and a compute error propagates to all of them
// without wedging the key — the next caller after a failure starts a
// fresh flight.
func (s *store[V]) fetch(key string, decode func([]byte) (V, error), compute func() (V, error)) (V, flightRole, error) {
	var zero V
	s.mu.Lock()
	if v, ok := s.entries[key]; ok {
		s.hits++
		s.mu.Unlock()
		return s.copy(v), roleHit, nil
	}
	if fl, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-fl.done
		s.mu.Lock()
		switch fl.err {
		case errMiss:
			s.misses++
		case nil:
			s.hits++
		}
		s.mu.Unlock()
		if fl.err != nil {
			return zero, roleFollower, fl.err
		}
		return s.copy(fl.v), roleFollower, nil
	}
	fl := &flight[V]{done: make(chan struct{})}
	s.inflight[key] = fl
	disk := s.disk
	s.mu.Unlock()

	// Read through the disk tier before paying the compute. The probe
	// happens inside the flight, so concurrent callers of a disk-resident
	// key cost exactly one file read and one promotion into memory.
	if disk != nil {
		read := s.kind
		read.decode = decode
		if v, ok := read.load(disk, key); ok {
			s.land(key, fl, v, nil, true)
			return v, roleHit, nil
		}
	}

	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
	if compute == nil {
		s.land(key, fl, zero, errMiss, false)
		return zero, roleLeader, errMiss
	}
	v, err := compute()
	s.land(key, fl, v, err, false)
	if err != nil {
		return zero, roleLeader, err
	}
	return v, roleLeader, nil
}

// land closes a flight with its outcome: on success the value is
// stored, written through to the disk tier unless it came from there
// (hit), and published to the followers (the opener keeps v itself, so
// no extra copy is made for it). hit also counts the landing as a
// cache hit; the miss of a computed landing was counted already.
func (s *store[V]) land(key string, fl *flight[V], v V, err error, hit bool) {
	s.mu.Lock()
	delete(s.inflight, key)
	if err != nil {
		fl.err = err
		close(fl.done)
		s.mu.Unlock()
		return
	}
	if hit {
		s.hits++
	}
	fl.v, _ = s.insertLocked(key, v)
	close(fl.done)
	s.unlockAndFlush(key, fl.v, !hit) //nolint:errcheck // best-effort durability tier
}

// put stores a value computed outside any flight and writes it through
// to the disk tier, returning the write-through error. Storing an
// already-present key is a no-op.
func (s *store[V]) put(key string, v V) error {
	s.mu.Lock()
	stored, fresh := s.insertLocked(key, v)
	return s.unlockAndFlush(key, stored, fresh)
}

// insertLocked stores (a copy of) v under key unless the key is
// already present, and returns the stored value and whether it is new.
// Callers hold s.mu.
func (s *store[V]) insertLocked(key string, v V) (V, bool) {
	if stored, ok := s.entries[key]; ok {
		return stored, false
	}
	stored := s.copy(v)
	s.entries[key] = stored
	return stored, true
}

// unlockAndFlush releases s.mu, then writes v through to the disk tier
// under key when write is set and a tier is attached. The write is
// best-effort for callers that drop the error: content-addressed keys
// make a lost write only a future recompute, never a correctness
// problem.
func (s *store[V]) unlockAndFlush(key string, v V, write bool) error {
	disk := s.disk
	s.mu.Unlock()
	if disk == nil || !write {
		return nil
	}
	return s.kind.store(disk, key, v)
}
