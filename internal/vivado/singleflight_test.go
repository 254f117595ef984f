package vivado

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"presp/internal/fpga"
)

// TestMaterializeSingleFlight drives N concurrent Synthesize calls for
// the same content through one shared cache: exactly one leader must
// pay the miss, everyone else shares the checkpoint as a hit, and all
// results are identical.
func TestMaterializeSingleFlight(t *testing.T) {
	dev := fpga.VC707()
	cache := NewCheckpointCache()

	const n = 32
	results := make([]*SynthCheckpoint, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One tool per goroutine, as the flow service holds one tool
			// per concurrent run; the cache is the shared layer.
			tool, err := New(dev, nil)
			if err != nil {
				errs[i] = err
				return
			}
			tool.SetCache(cache)
			results[i], errs[i] = synth(tool, testModule("sf_mod", 1200), true)
		}()
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("synthesize %d: %v", i, errs[i])
		}
		if results[i] == nil {
			t.Fatalf("synthesize %d returned nil checkpoint", i)
		}
		if results[i].Name != "sf_mod" || results[i].Runtime != results[0].Runtime ||
			results[i].Resources != results[0].Resources || results[i].OoC != results[0].OoC {
			t.Fatalf("checkpoint %d = %+v, want identical to leader %+v", i, results[i], results[0])
		}
	}
	hits, misses := cache.Stats()
	if misses != 1 {
		t.Fatalf("cache misses = %d, want exactly 1 (single-flight leader)", misses)
	}
	if hits != n-1 {
		t.Fatalf("cache hits = %d, want %d (every follower shares the flight)", hits, n-1)
	}
}

// TestMaterializeLeaderErrorPropagates holds a flight open with a
// blocking compute, parks followers on it, then fails the leader: every
// follower must observe the leader's error, the key must not stay
// wedged, and the next caller must start a fresh flight. The leader is
// released only once every follower is parked on the flight; a follower
// that arrived after the flight closed would lead a second flight
// instead.
func TestMaterializeLeaderErrorPropagates(t *testing.T) {
	cache := NewCheckpointCache()
	boom := errors.New("synthesis crashed")
	started := make(chan struct{})
	release := make(chan struct{})

	leaderDone := make(chan error, 1)
	go func() {
		_, role, err := cache.materialize("k", func() (*SynthCheckpoint, error) {
			close(started)
			<-release
			return nil, boom
		})
		if role != roleLeader {
			leaderDone <- fmt.Errorf("leader got role %v, want roleLeader", role)
			return
		}
		leaderDone <- err
	}()
	<-started

	const followers = 8
	var wg sync.WaitGroup
	ferrs := make([]error, followers)
	froles := make([]flightRole, followers)
	for i := 0; i < followers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, froles[i], ferrs[i] = cache.materialize("k", func() (*SynthCheckpoint, error) {
				return nil, errors.New("follower must not compute")
			})
		}()
	}
	waitParked(t, followers)
	close(release)
	wg.Wait()
	if err := <-leaderDone; !errors.Is(err, boom) {
		t.Fatalf("leader error = %v, want %v", err, boom)
	}
	for i := 0; i < followers; i++ {
		if froles[i] != roleFollower {
			t.Fatalf("follower %d got role %v, want roleFollower", i, froles[i])
		}
		if !errors.Is(ferrs[i], boom) {
			t.Fatalf("follower %d error = %v, want leader's %v", i, ferrs[i], boom)
		}
	}

	// The group is not wedged: a fresh call computes anew and succeeds.
	ck, role, err := cache.materialize("k", func() (*SynthCheckpoint, error) {
		return &SynthCheckpoint{Name: "fresh", Runtime: 1}, nil
	})
	if err != nil || role != roleLeader || ck == nil || ck.Name != "fresh" {
		t.Fatalf("post-failure materialize = (%+v, %v, %v), want fresh leader success", ck, role, err)
	}
}

// waitParked blocks until n goroutines are parked on a flight's done
// channel inside the store's fetch, read from the goroutine stack dump:
// the top frame of a parked follower is fetch itself, while a leader
// blocked in its compute callback has the callback on top.
func waitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		parked := 0
		dump := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(dump, "\n\n") {
			lines := strings.SplitN(g, "\n", 3)
			if len(lines) >= 2 && strings.Contains(lines[0], "[chan receive") &&
				strings.HasPrefix(lines[1], "presp/internal/vivado.(*store[...]).fetch(") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers parked on the flight after 10s", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMaterializeSharesStoredCheckpoint: the leader of a flight, each
// follower parked on it and a later lookup all get the one checkpoint
// the cache stored — the same pointer, served shared like every stage
// artifact, not a copy per caller.
func TestMaterializeSharesStoredCheckpoint(t *testing.T) {
	cache := NewCheckpointCache()
	started := make(chan struct{})
	release := make(chan struct{})
	leaderCk := make(chan *SynthCheckpoint, 1)
	go func() {
		ck, _, _ := cache.materialize("k", func() (*SynthCheckpoint, error) {
			close(started)
			<-release
			return &SynthCheckpoint{Name: "acc", Runtime: 7, BlackBoxes: []string{"u_rp0"}}, nil
		})
		leaderCk <- ck
	}()
	<-started
	const followers = 4
	followerCks := make(chan *SynthCheckpoint, followers)
	for i := 0; i < followers; i++ {
		go func() {
			ck, role, err := cache.materialize("k", func() (*SynthCheckpoint, error) {
				return nil, fmt.Errorf("follower must not compute")
			})
			if role != roleFollower || err != nil {
				ck = nil
			}
			followerCks <- ck
		}()
	}
	waitParked(t, followers)
	close(release)
	lck := <-leaderCk
	if lck == nil || lck.Name != "acc" {
		t.Fatalf("leader got %+v, want its computed checkpoint", lck)
	}
	for i := 0; i < followers; i++ {
		if fck := <-followerCks; fck != lck {
			t.Fatalf("follower got %p (%+v), want the leader's stored checkpoint %p", fck, fck, lck)
		}
	}
	cached, ok := cache.lookup("k")
	if !ok {
		t.Fatal("entry missing")
	}
	if cached != lck {
		t.Fatalf("later lookup got %p, want the stored checkpoint %p", cached, lck)
	}
}

// TestMaterializeFailedFlightNotCached asserts a failed leader leaves
// nothing behind: no entry, no inflight record, and the miss counter
// reflects each real attempt.
func TestMaterializeFailedFlightNotCached(t *testing.T) {
	cache := NewCheckpointCache()
	if _, _, err := cache.materialize("k", func() (*SynthCheckpoint, error) {
		return nil, errors.New("no")
	}); err == nil {
		t.Fatal("failed compute reported success")
	}
	if cache.Len() != 0 {
		t.Fatalf("failed flight cached an entry (len=%d)", cache.Len())
	}
	if _, misses := cache.Stats(); misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
}
