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

// lookup fetches the checkpoint under key without computing
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

// synth synthesizes m through tool under its checkpoint key, as the
// flow does for every synthesis job.
func synth(tool *Tool, m *rtl.Module, ooc bool) (*SynthCheckpoint, error) {
	return tool.Synthesize(context.Background(), tool.CheckpointKey(m, ooc), m, ooc)
}

// TestCacheHitMatchesColdSynthesis: the checkpoint served from a warm
// cache is deep-equal to the one a cache-less synthesis produces, and
// it is the very checkpoint the filling synthesis stored: the cache
// serves it shared, as it does every stage artifact.
func TestCacheHitMatchesColdSynthesis(t *testing.T) {
	tool, cache := cachedTool(t, "VC707")
	m := testModule("acc", 20000)

	plain, err := New(tool.Device(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := plain.Synthesize(context.Background(), "", m, true)
	if err != nil {
		t.Fatal(err)
	}
	filled, err := synth(tool, m, true)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := synth(tool, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cache hit differs from cold synthesis:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	if warm != filled {
		t.Fatal("cache hit is not the checkpoint its miss stored")
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats: %d hits / %d misses, want 1/1", hits, misses)
	}
}

// TestSynthesizeUnkeyedBypassesCache: an empty key synthesizes
// directly — synthesis derives no key — so it neither reads nor fills
// the attached cache, while the keyed run of the same module does.
func TestSynthesizeUnkeyedBypassesCache(t *testing.T) {
	tool, cache := cachedTool(t, "VC707")
	m := testModule("acc", 20000)
	unkeyed, err := tool.Synthesize(context.Background(), "", m, true)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 || tool.cacheHits.Load()+tool.cacheMisses.Load() != 0 {
		t.Fatalf("unkeyed synthesis touched the cache: %d entries", cache.Len())
	}
	keyed, err := synth(tool, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(unkeyed, keyed) {
		t.Fatalf("keyed synthesis differs from unkeyed:\nunkeyed: %+v\nkeyed:   %+v", unkeyed, keyed)
	}
	if _, ok := cache.lookup(tool.CheckpointKey(m, true)); !ok {
		t.Fatal("keyed synthesis stored nothing under its key")
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats: %d hits / %d misses, want 1/1", hits, misses)
	}
}

// TestSynthesizeWarmAllocs pins the allocations of a keyed, cache-warm
// synthesis with no fault hook: none. The cache serves its stored
// checkpoint itself, and the fault-site list is built only for a fault
// hook to read.
func TestSynthesizeWarmAllocs(t *testing.T) {
	tool, _ := cachedTool(t, "VC707")
	m := testModule("acc", 20000)
	key := tool.CheckpointKey(m, true)
	ctx := context.Background()
	if _, err := tool.Synthesize(ctx, key, m, true, "rt_1_rp"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tool.Synthesize(ctx, key, m, true, "rt_1_rp"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("keyed warm synthesis: %v allocs/op, want 0", allocs)
	}
}

// TestCacheKeyInvalidation: any change to the module's resources, its
// hierarchy, the synthesis mode, the device or the cost model's
// synthesis parameters must miss.
func TestCacheKeyInvalidation(t *testing.T) {
	tool, cache := cachedTool(t, "VC707")
	if _, err := synth(tool, testModule("acc", 20000), true); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		label string
		run   func() error
	}{
		{"changed resources", func() error {
			_, err := synth(tool, testModule("acc", 20001), true)
			return err
		}},
		{"changed ooc mode", func() error {
			_, err := synth(tool, testModule("acc", 20000), false)
			return err
		}},
		{"changed hierarchy", func() error {
			m := testModule("acc", 20000)
			m.AddChild("u_extra", &rtl.Module{Name: "extra", Cost: fpga.NewResources(10, 10, 0, 0)})
			_, err := synth(tool, m, true)
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
			_, err = synth(other, testModule("acc", 20000), true)
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
			_, err = synth(other, testModule("acc", 20000), true)
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
	if _, err := synth(tool, testModule("acc", 20000), true); err != nil {
		t.Fatal(err)
	}
	if hits, _ := cache.Stats(); hits != hitsBefore+1 {
		t.Fatal("identical module no longer hits after unrelated inserts")
	}
}

// TestCacheConcurrentSynthesize hammers one shared cache from many
// goroutines — the race detector gates the locking discipline — and
// every caller of one content gets the one checkpoint stored for it.
func TestCacheConcurrentSynthesize(t *testing.T) {
	tool, cache := cachedTool(t, "VC707")
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	var got [8][8]*SynthCheckpoint
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				m := testModule(fmt.Sprintf("acc%d", i%4), 10000+(i%4)*100)
				ck, err := synth(tool, m, true)
				if err != nil {
					errs <- err
					return
				}
				got[w][i] = ck
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := range got {
		for i, ck := range got[w] {
			if ck != got[0][i%4] {
				t.Fatalf("caller %d/%d got its own checkpoint of acc%d", w, i, i%4)
			}
		}
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
	if _, err := synth(tool, testModule("acc", 20000), true); err != nil {
		t.Fatal(err)
	}
	if hits, misses := tool.CacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("cache-less tool reported traffic: %d/%d", hits, misses)
	}
}
