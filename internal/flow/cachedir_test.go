package flow

import (
	"context"
	"testing"

	"presp/internal/obs"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

// diskCache returns a fresh checkpoint cache over a persistent tier at
// dir, wired the way presp-flow -cache-dir wires one: each call stands
// for a new process, empty in memory, over the same directory. o, when
// non-nil, receives the tier's cache_disk_* metrics.
func diskCache(t testing.TB, dir string, o *obs.Observer) *vivado.CheckpointCache {
	t.Helper()
	ds, err := vivado.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds.SetObserver(o)
	cache := vivado.NewCheckpointCache()
	cache.SetDiskStore(ds)
	return cache
}

// TestRunPRESPCacheDirWarmStart: two independent runs — separate caches,
// as two processes would have — over one cache directory: the first
// pays every synthesis, the second warm-starts entirely from the disk
// tier with identical results and visible cache_disk_* traffic.
func TestRunPRESPCacheDirWarmStart(t *testing.T) {
	dir := t.TempDir()
	cold, err := RunPRESP(context.Background(), elaborate(t, socgen.SOC1()),
		Options{SkipBitstreams: true, Cache: diskCache(t, dir, nil)})
	if err != nil {
		t.Fatal(err)
	}
	// SOC1 carries content-identical accelerator instances, so a cold run
	// still hits within itself — what matters is that it paid at least
	// one real synthesis and accounted for every job.
	if cold.Jobs.CacheMisses == 0 ||
		cold.Jobs.CacheHits+cold.Jobs.CacheMisses != cold.Jobs.SynthJobs {
		t.Fatalf("cold run cache traffic = %d hits / %d misses over %d synth jobs",
			cold.Jobs.CacheHits, cold.Jobs.CacheMisses, cold.Jobs.SynthJobs)
	}

	// Second "process": a fresh cache, same directory.
	o := obs.New()
	warm, err := RunPRESP(context.Background(), elaborate(t, socgen.SOC1()),
		Options{SkipBitstreams: true, Cache: diskCache(t, dir, o), Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Jobs.CacheHits != warm.Jobs.SynthJobs || warm.Jobs.CacheMisses != 0 {
		t.Fatalf("warm run cache traffic = %d hits / %d misses, want %d/0",
			warm.Jobs.CacheHits, warm.Jobs.CacheMisses, warm.Jobs.SynthJobs)
	}
	if warm.SynthWall != cold.SynthWall || warm.Total != cold.Total {
		t.Fatalf("disk-served run diverged: cold %v/%v, warm %v/%v",
			cold.SynthWall, cold.Total, warm.SynthWall, warm.Total)
	}
	snap := o.Metrics().Snapshot()
	if snap.Counters["cache_disk_hits"] < 1 {
		t.Fatalf("cache_disk_hits = %d, want >= 1", snap.Counters["cache_disk_hits"])
	}
	if snap.Counters["cache_disk_misses"] != 0 {
		t.Fatalf("cache_disk_misses = %d, want 0 on a warm start", snap.Counters["cache_disk_misses"])
	}
}
