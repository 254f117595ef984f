package vivado

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"presp/internal/fpga"
	"presp/internal/rtl"
)

func testModule(name string, luts int) *rtl.Module {
	m := &rtl.Module{Name: name, Cost: fpga.NewResources(luts, luts, 4, 8)}
	m.AddPort("clk", rtl.In, 1, rtl.ClockPort)
	m.AddPort("data", rtl.In, 64, rtl.DataPort)
	sub := &rtl.Module{Name: name + "_core", Cost: fpga.NewResources(luts/2, luts/2, 2, 4)}
	m.AddChild("u_core", sub)
	return m
}

// lookup fetches a copy of the checkpoint under key without computing
// it, counting the access as a hit or miss.
func (c *CheckpointCache) lookup(key string) (*SynthCheckpoint, bool) {
	ck, _, err := c.fetch(key, decodeCheckpoint, nil)
	return ck, err == nil
}

// materialize is Tool.Synthesize's path through the cache: fetch with
// the checkpoint codec and a compute callback.
func (c *CheckpointCache) materialize(key string, compute func() (*SynthCheckpoint, error)) (*SynthCheckpoint, flightRole, error) {
	return c.fetch(key, decodeCheckpoint, compute)
}

func cachedTool(t *testing.T, board string) (*Tool, *CheckpointCache) {
	t.Helper()
	dev, err := fpga.ByBoard(board)
	if err != nil {
		t.Fatal(err)
	}
	tool, err := New(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCheckpointCache()
	tool.SetCache(cache)
	return tool, cache
}

// TestCacheHitMatchesColdSynthesis: the checkpoint served from a warm
// cache is deep-equal to the one a cold synthesis produces, and the
// caller cannot corrupt the cache through the returned pointer.
func TestCacheHitMatchesColdSynthesis(t *testing.T) {
	tool, cache := cachedTool(t, "VC707")
	m := testModule("acc", 20000)

	cold, err := tool.Synthesize(context.Background(), m, true)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := tool.Synthesize(context.Background(), m, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cache hit differs from cold synthesis:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	if cold == warm {
		t.Fatal("cache returned an aliased pointer, not a copy")
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats: %d hits / %d misses, want 1/1", hits, misses)
	}

	// Mutating the returned checkpoint must not poison later hits.
	warm.Resources[fpga.LUT] = 1
	warm.Runtime = -1
	again, err := tool.Synthesize(context.Background(), m, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, again) {
		t.Fatal("mutating a returned checkpoint corrupted the cache")
	}
}

// TestCacheKeyInvalidation: any change to the module's resources, its
// hierarchy, the synthesis mode, the device or the cost model's
// synthesis parameters must miss.
func TestCacheKeyInvalidation(t *testing.T) {
	tool, cache := cachedTool(t, "VC707")
	if _, err := tool.Synthesize(context.Background(), testModule("acc", 20000), true); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		label string
		run   func() error
	}{
		{"changed resources", func() error {
			_, err := tool.Synthesize(context.Background(), testModule("acc", 20001), true)
			return err
		}},
		{"changed ooc mode", func() error {
			_, err := tool.Synthesize(context.Background(), testModule("acc", 20000), false)
			return err
		}},
		{"changed hierarchy", func() error {
			m := testModule("acc", 20000)
			m.AddChild("u_extra", &rtl.Module{Name: "extra", Cost: fpga.NewResources(10, 10, 0, 0)})
			_, err := tool.Synthesize(context.Background(), m, true)
			return err
		}},
		{"changed device", func() error {
			dev, err := fpga.ByBoard("VCU118")
			if err != nil {
				return err
			}
			other, err := New(dev, nil)
			if err != nil {
				return err
			}
			other.SetCache(cache)
			_, err = other.Synthesize(context.Background(), testModule("acc", 20000), true)
			return err
		}},
		{"changed model", func() error {
			model := DefaultCostModel()
			model.SynthPerK *= 2
			dev, err := fpga.ByBoard("VC707")
			if err != nil {
				return err
			}
			other, err := New(dev, model)
			if err != nil {
				return err
			}
			other.SetCache(cache)
			_, err = other.Synthesize(context.Background(), testModule("acc", 20000), true)
			return err
		}},
	}
	for i, tc := range cases {
		before, missesBefore := cache.Stats()
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		hits, misses := cache.Stats()
		if hits != before || misses != missesBefore+1 {
			t.Fatalf("case %d (%s): expected a miss, got hits %d->%d misses %d->%d",
				i, tc.label, before, hits, missesBefore, misses)
		}
	}

	// And the identical input still hits.
	hitsBefore, _ := cache.Stats()
	if _, err := tool.Synthesize(context.Background(), testModule("acc", 20000), true); err != nil {
		t.Fatal(err)
	}
	if hits, _ := cache.Stats(); hits != hitsBefore+1 {
		t.Fatal("identical module no longer hits after unrelated inserts")
	}
}

// TestCacheConcurrentSynthesize hammers one shared cache from many
// goroutines — the race detector gates the locking discipline.
func TestCacheConcurrentSynthesize(t *testing.T) {
	tool, cache := cachedTool(t, "VC707")
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				m := testModule(fmt.Sprintf("acc%d", i%4), 10000+(i%4)*100)
				ck, err := tool.Synthesize(context.Background(), m, true)
				if err != nil {
					errs <- err
					return
				}
				// Touch the result: clones must be private per caller.
				ck.BlackBoxes = append(ck.BlackBoxes, "scratch")
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cache.Len() != 4 {
		t.Fatalf("cache holds %d entries, want 4", cache.Len())
	}
	hits, misses := cache.Stats()
	if hits+misses != 64 {
		t.Fatalf("accounted %d accesses, want 64", hits+misses)
	}
	if misses < 4 {
		t.Fatalf("only %d misses for 4 distinct designs", misses)
	}
}

// TestToolWithoutCache: a cache-less tool keeps working and reports zero
// cache traffic.
func TestToolWithoutCache(t *testing.T) {
	dev, err := fpga.ByBoard("VC707")
	if err != nil {
		t.Fatal(err)
	}
	tool, err := New(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tool.Synthesize(context.Background(), testModule("acc", 20000), true); err != nil {
		t.Fatal(err)
	}
	if hits, misses := tool.CacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("cache-less tool reported traffic: %d/%d", hits, misses)
	}
}
