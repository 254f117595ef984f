package vivado

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"presp/internal/crcframe"
	"presp/internal/fpga"
	"presp/internal/obs"
)

func testCheckpoint(name string) *SynthCheckpoint {
	return &SynthCheckpoint{
		Name:       name,
		Resources:  fpga.NewResources(1200, 900, 4, 8),
		OoC:        true,
		Runtime:    12.5,
		BlackBoxes: []string{"u_rp0", "u_rp1"},
	}
}

func openTestStore(t testing.TB) *DiskStore {
	t.Helper()
	ds, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestDiskStoreRoundTrip: a stored checkpoint loads back byte-for-byte,
// re-storing an existing key is a no-op (content-addressed), and a
// missing key is a miss.
func TestDiskStoreRoundTrip(t *testing.T) {
	ds := openTestStore(t)
	ck := testCheckpoint("acc")
	if err := checkpointEntries.store(ds, "k1", ck); err != nil {
		t.Fatal(err)
	}
	got, ok := checkpointEntries.load(ds, "k1")
	if !ok {
		t.Fatal("stored entry did not load")
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatalf("round-trip mismatch: got %+v, want %+v", got, ck)
	}
	// Loads hand out independent copies: mutating one must not leak into
	// the next.
	got.BlackBoxes[0] = "mutated"
	again, _ := checkpointEntries.load(ds, "k1")
	if again.BlackBoxes[0] != "u_rp0" {
		t.Fatal("disk loads alias each other")
	}
	if err := checkpointEntries.store(ds, "k1", testCheckpoint("other")); err != nil {
		t.Fatal(err)
	}
	st := ds.Stats()
	if st.Writes != 1 {
		t.Fatalf("Writes = %d, want 1 (re-store of a present key is a no-op)", st.Writes)
	}
	if st.Hits != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 entry", st)
	}
	if _, ok := checkpointEntries.load(ds, "absent"); ok {
		t.Fatal("missing key loaded")
	}
	if st := ds.Stats(); st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", st.Misses)
	}
}

// TestDiskStoreRejectsBadInput: empty keys, nil checkpoints and an empty
// directory are refused up front.
func TestDiskStoreRejectsBadInput(t *testing.T) {
	if _, err := OpenDiskStore(""); err == nil {
		t.Fatal("empty directory accepted")
	}
	ds := openTestStore(t)
	if err := checkpointEntries.store(ds, "", testCheckpoint("x")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := checkpointEntries.store(ds, "k", nil); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
	if _, ok := checkpointEntries.load(ds, ""); ok {
		t.Fatal("empty key loaded")
	}
}

// corruptEntry flips one byte in the on-disk file for key.
func corruptEntry(t *testing.T, ds *DiskStore, key string, offset int) {
	t.Helper()
	path := filepath.Join(ds.Dir(), key+checkpointEntries.ext)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[offset] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDiskStoreQuarantineCorrupt: a flipped byte means the entry is
// never loaded — it is moved aside as *.bad, counted, and the key can be
// recomputed and stored again.
func TestDiskStoreQuarantineCorrupt(t *testing.T) {
	ds := openTestStore(t)
	if err := checkpointEntries.store(ds, "k1", testCheckpoint("acc")); err != nil {
		t.Fatal(err)
	}
	corruptEntry(t, ds, "k1", 3)
	if _, ok := checkpointEntries.load(ds, "k1"); ok {
		t.Fatal("corrupt entry loaded")
	}
	st := ds.Stats()
	if st.Corrupt != 1 || st.Misses != 1 || st.Entries != 0 {
		t.Fatalf("stats after corruption = %+v, want 1 corrupt / 1 miss / 0 entries", st)
	}
	if _, err := os.Stat(filepath.Join(ds.Dir(), "k1"+checkpointEntries.ext+diskQuarantineExt)); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(ds.Dir(), "k1"+checkpointEntries.ext)); !os.IsNotExist(err) {
		t.Fatal("corrupt entry still present under its live name")
	}
	// The key is recomputable: a fresh store makes it loadable again.
	if err := checkpointEntries.store(ds, "k1", testCheckpoint("acc")); err != nil {
		t.Fatal(err)
	}
	if _, ok := checkpointEntries.load(ds, "k1"); !ok {
		t.Fatal("recomputed entry did not load")
	}
}

// TestDiskStoreTruncatedEntry: a file too short to carry the CRC trailer
// is quarantined, not trusted.
func TestDiskStoreTruncatedEntry(t *testing.T) {
	ds := openTestStore(t)
	if err := checkpointEntries.store(ds, "k1", testCheckpoint("acc")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(ds.Dir(), "k1"+checkpointEntries.ext)
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := checkpointEntries.load(ds, "k1"); ok {
		t.Fatal("truncated entry loaded")
	}
	if st := ds.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
}

// TestDiskStoreVerifyAtOpen: reopening a directory verifies every entry
// up front — good ones survive, corrupt ones are quarantined before any
// Load can see them.
func TestDiskStoreVerifyAtOpen(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpointEntries.store(ds, "good", testCheckpoint("acc")); err != nil {
		t.Fatal(err)
	}
	if err := checkpointEntries.store(ds, "bad", testCheckpoint("acc2")); err != nil {
		t.Fatal(err)
	}
	corruptEntry(t, ds, "bad", 5)
	if err := os.WriteFile(filepath.Join(dir, "garbage"+checkpointEntries.ext), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	ds2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := ds2.Stats()
	if st.Entries != 1 || st.Corrupt != 2 {
		t.Fatalf("stats after reopen = %+v, want 1 entry / 2 corrupt", st)
	}
	if _, ok := checkpointEntries.load(ds2, "good"); !ok {
		t.Fatal("good entry lost across reopen")
	}
	if _, ok := checkpointEntries.load(ds2, "bad"); ok {
		t.Fatal("corrupt entry loaded after reopen")
	}
}

// TestDiskStoreGCOldestFirst: the byte budget evicts the
// least-recently-accessed entries first, and a Load refreshes its
// entry's recency so hot entries survive the sweep.
func TestDiskStoreGCOldestFirst(t *testing.T) {
	ds := openTestStore(t)
	var size int64
	for _, k := range []string{"k1", "k2", "k3"} {
		if err := checkpointEntries.store(ds, k, testCheckpoint("m_"+k)); err != nil {
			t.Fatal(err)
		}
	}
	size = ds.Stats().Bytes / 3
	// Pin distinct access times: k1 oldest, k3 newest.
	base := time.Now().Add(-time.Hour)
	for i, k := range []string{"k1", "k2", "k3"} {
		ts := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(ds.Dir(), k+checkpointEntries.ext), ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	// Budget for two entries: the oldest (k1) must go.
	ds.SetMaxBytes(2 * size)
	st := ds.Stats()
	if st.Entries != 2 || st.GCEvictions != 1 {
		t.Fatalf("stats after GC = %+v, want 2 entries / 1 eviction", st)
	}
	if _, ok := checkpointEntries.load(ds, "k1"); ok {
		t.Fatal("oldest entry survived the byte budget")
	}
	// That Load was a miss; k2 is now the oldest — but touching it via a
	// successful Load must protect it, so adding a new entry evicts k3.
	if _, ok := checkpointEntries.load(ds, "k2"); !ok {
		t.Fatal("k2 missing")
	}
	if err := checkpointEntries.store(ds, "k4", testCheckpoint("m_k4")); err != nil {
		t.Fatal(err)
	}
	if _, ok := checkpointEntries.load(ds, "k2"); !ok {
		t.Fatal("recently-loaded entry was GC'd ahead of older ones")
	}
	if _, ok := checkpointEntries.load(ds, "k3"); ok {
		t.Fatal("stale entry survived while a fresher one was evicted")
	}
}

// TestDiskStoreObserver: the cache_disk_* instruments land on the shared
// registry with the documented names and track real operations.
func TestDiskStoreObserver(t *testing.T) {
	ds := openTestStore(t)
	o := obs.New()
	ds.SetObserver(o)
	if err := checkpointEntries.store(ds, "k1", testCheckpoint("acc")); err != nil {
		t.Fatal(err)
	}
	if _, ok := checkpointEntries.load(ds, "k1"); !ok {
		t.Fatal("load failed")
	}
	if _, ok := checkpointEntries.load(ds, "absent"); ok {
		t.Fatal("phantom hit")
	}
	corruptEntry(t, ds, "k1", 2)
	if _, ok := checkpointEntries.load(ds, "k1"); ok {
		t.Fatal("corrupt load succeeded")
	}
	snap := o.Metrics().Snapshot()
	want := map[string]int64{
		"cache_disk_hits":    1,
		"cache_disk_misses":  2,
		"cache_disk_writes":  1,
		"cache_disk_corrupt": 1,
	}
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	for _, name := range []string{"cache_disk_load_ms", "cache_disk_store_ms"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			t.Errorf("histogram %s missing or empty", name)
		}
	}
}

// TestCacheDiskWriteThroughAndWarmRestart: inserts write through to
// disk, and a fresh cache over the same directory serves the key as a
// hit without any compute — the warm-restart contract.
func TestCacheDiskWriteThroughAndWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCheckpointCache()
	cache.SetDiskStore(ds)
	if cache.Disk() != ds {
		t.Fatal("Disk() does not report the attached store")
	}
	want, role, err := cache.materialize("k", func() (*SynthCheckpoint, error) {
		return testCheckpoint("acc"), nil
	})
	if err != nil || role != roleLeader {
		t.Fatalf("first materialize = role %v, err %v", role, err)
	}
	if ds.Len() != 1 {
		t.Fatalf("insert did not write through: disk has %d entries", ds.Len())
	}

	// "Restart": new process state, same directory.
	ds2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache2 := NewCheckpointCache()
	cache2.SetDiskStore(ds2)
	got, role, err := cache2.materialize("k", func() (*SynthCheckpoint, error) {
		t.Error("warm restart paid a compute")
		return nil, nil
	})
	if err != nil || role != roleHit {
		t.Fatalf("warm materialize = role %v, err %v, want disk-served hit", role, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("disk-served checkpoint differs: got %+v, want %+v", got, want)
	}
	if hits, misses := cache2.Stats(); hits != 1 || misses != 0 {
		t.Fatalf("warm cache stats = %d hits / %d misses, want 1/0", hits, misses)
	}
	if st := ds2.Stats(); st.Hits != 1 {
		t.Fatalf("disk hits = %d, want 1", st.Hits)
	}
	// Promotion happened: a second materialize is a pure memory hit.
	if _, role, _ := cache2.materialize("k", nil); role != roleHit {
		t.Fatal("promoted entry not served from memory")
	}
	if st := ds2.Stats(); st.Hits != 1 {
		t.Fatalf("memory hit went back to disk (disk hits = %d)", st.Hits)
	}
}

// TestCacheDiskPromotionSingleFlight: N callers racing on a
// disk-resident key cost exactly one file read — the probe rides the
// flight, and everyone shares the promoted checkpoint.
func TestCacheDiskPromotionSingleFlight(t *testing.T) {
	ds := openTestStore(t)
	if err := checkpointEntries.store(ds, "k", testCheckpoint("acc")); err != nil {
		t.Fatal(err)
	}
	cache := NewCheckpointCache()
	cache.SetDiskStore(ds)

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ck, _, err := cache.materialize("k", func() (*SynthCheckpoint, error) {
				t.Error("disk-resident key paid a compute")
				return nil, nil
			})
			if err == nil && ck.Name != "acc" {
				err = os.ErrInvalid
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if st := ds.Stats(); st.Hits != 1 {
		t.Fatalf("disk hits = %d, want exactly 1 (probe rides the single flight)", st.Hits)
	}
	if hits, misses := cache.Stats(); hits != n || misses != 0 {
		t.Fatalf("cache stats = %d hits / %d misses, want %d/0", hits, misses, n)
	}
}

// FuzzDiskEntry mutates a valid on-disk entry of each kind — truncation
// plus a byte flip at an arbitrary offset — and loads it through the
// shared read path of a real store: a damaged file must never be
// trusted (miss, quarantined), and the unmutated entry must load back
// exactly the original value.
func FuzzDiskEntry(f *testing.F) {
	ck := testCheckpoint("fuzz_mod")
	n := len(crcframe.Seal(mustEncode(f, checkpointEntries, ck)))
	f.Add(0, byte(0), n)
	f.Add(3, byte(1), n)
	f.Add(0, byte(0), 0)
	f.Add(n-1, byte(0x80), n)
	f.Add(0, byte(0xff), crcframe.TrailerLen)
	art := stageArtifact{value: map[string][]int{"rt_1_rp": {0, 4, 12, 20}}, minutes: 41.5}
	artifacts := artifactEntries
	artifacts.decode = decodeArtifact[map[string][]int]
	f.Fuzz(func(t *testing.T, off int, flip byte, keep int) {
		fuzzDiskKind(t, checkpointEntries, ck, off, flip, keep)
		fuzzDiskKind(t, artifacts, art, off, flip, keep)
	})
}

func mustEncode[T any](tb testing.TB, k diskKind[T], v T) []byte {
	tb.Helper()
	body, err := k.encode(v)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// fuzzDiskKind is one FuzzDiskEntry leg: seal want as a kind-k entry,
// mutate it, write it into a fresh store and load it back.
func fuzzDiskKind[T any](t *testing.T, k diskKind[T], want T, off int, flip byte, keep int) {
	t.Helper()
	valid := crcframe.Seal(mustEncode(t, k, want))
	data := append([]byte(nil), valid...)
	if keep < 0 {
		keep = -keep
	}
	if keep > len(data) {
		keep = len(data)
	}
	data = data[:keep]
	mutated := keep < len(valid)
	if len(data) > 0 {
		i := off % len(data)
		if i < 0 {
			i += len(data)
		}
		data[i] ^= flip
		if flip != 0 {
			mutated = true
		}
	}
	ds := openTestStore(t)
	if err := os.WriteFile(filepath.Join(ds.Dir(), "k"+k.ext), data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := k.load(ds, "k")
	if !mutated {
		if !ok {
			t.Fatalf("%s: pristine entry rejected", k.ext)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pristine entry loaded as %+v, want %+v", k.ext, got, want)
		}
		return
	}
	if ok {
		t.Fatalf("%s: mutated entry (keep=%d flip=%#x off=%d) loaded as %+v", k.ext, keep, flip, off, got)
	}
	if st := ds.Stats(); st.Corrupt != 1 || st.Entries != 0 {
		t.Fatalf("%s: mutated entry not quarantined: %+v", k.ext, st)
	}
}

// TestDiskStoreQuarantineAgeOut: a quarantined *.bad file is kept for
// post-mortem, counted in Stats, and aged out by the GC once it is older
// than quarantineMaxAge — even with no byte budget configured.
func TestDiskStoreQuarantineAgeOut(t *testing.T) {
	ds := openTestStore(t)
	o := obs.New()
	ds.SetObserver(o)
	if err := checkpointEntries.store(ds, "k1", testCheckpoint("acc")); err != nil {
		t.Fatal(err)
	}
	corruptEntry(t, ds, "k1", 3)
	if _, ok := checkpointEntries.load(ds, "k1"); ok {
		t.Fatal("corrupt entry loaded")
	}
	st := ds.Stats()
	if st.Quarantined != 1 || st.QuarantinedBytes <= 0 {
		t.Fatalf("stats = %+v, want 1 quarantined file with bytes", st)
	}

	// A fresh quarantine survives a GC pass...
	if err := checkpointEntries.store(ds, "k2", testCheckpoint("acc2")); err != nil {
		t.Fatal(err)
	}
	if st := ds.Stats(); st.Quarantined != 1 || st.QuarantineEvictions != 0 {
		t.Fatalf("fresh quarantine aged out early: %+v", st)
	}

	// ...but once older than quarantineMaxAge the next pass removes it.
	bad := filepath.Join(ds.Dir(), "k1"+checkpointEntries.ext+diskQuarantineExt)
	old := time.Now().Add(-quarantineMaxAge - time.Hour)
	if err := os.Chtimes(bad, old, old); err != nil {
		t.Fatal(err)
	}
	if err := checkpointEntries.store(ds, "k3", testCheckpoint("acc3")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatal("aged quarantine file still on disk")
	}
	st = ds.Stats()
	if st.Quarantined != 0 || st.QuarantinedBytes != 0 || st.QuarantineEvictions != 1 {
		t.Fatalf("stats after age-out = %+v, want 0 quarantined / 1 eviction", st)
	}
	snap := o.Metrics().Snapshot()
	if snap.Counters["cache_disk_quarantine_evictions"] != 1 {
		t.Errorf("cache_disk_quarantine_evictions = %d, want 1",
			snap.Counters["cache_disk_quarantine_evictions"])
	}
}

// TestDiskStoreQuarantineFoundAtOpenAgesOut: a *.bad file already in
// the directory at open is counted, so a later write still ages it out
// — while the GC lists the directory only when it knows of a
// quarantined file or the store is over budget, never on every write.
func TestDiskStoreQuarantineFoundAtOpenAgesOut(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "k0"+checkpointEntries.ext+diskQuarantineExt)
	if err := os.WriteFile(bad, []byte("corpse"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := ds.Stats(); st.Quarantined != 1 || st.QuarantineEvictions != 0 {
		t.Fatalf("stats at open = %+v, want the fresh quarantine kept", st)
	}
	old := time.Now().Add(-quarantineMaxAge - time.Hour)
	if err := os.Chtimes(bad, old, old); err != nil {
		t.Fatal(err)
	}
	if err := checkpointEntries.store(ds, "k1", testCheckpoint("acc")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatal("quarantine found at open not aged out by a later write")
	}
	if st := ds.Stats(); st.Quarantined != 0 || st.QuarantineEvictions != 1 {
		t.Fatalf("stats after age-out = %+v, want 0 quarantined / 1 eviction", st)
	}

	// With none known, a write does not list the directory: an aged
	// *.bad file planted behind the store's back stays until the next
	// open counts it.
	stray := filepath.Join(dir, "k9"+checkpointEntries.ext+diskQuarantineExt)
	if err := os.WriteFile(stray, []byte("corpse"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(stray, old, old); err != nil {
		t.Fatal(err)
	}
	if err := checkpointEntries.store(ds, "k2", testCheckpoint("acc2")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("write listed the directory with no quarantine known: %v", err)
	}
	if _, err := OpenDiskStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("reopen did not age out the stray quarantine file")
	}
}

// TestDiskStoreQuarantineCountsAgainstBudget: *.bad files count toward
// SetMaxBytes and are sacrificed ahead of live entries — a corruption
// storm shrinks the post-mortem pile, not the working set.
func TestDiskStoreQuarantineCountsAgainstBudget(t *testing.T) {
	ds := openTestStore(t)
	for _, k := range []string{"k1", "k2", "k3"} {
		if err := checkpointEntries.store(ds, k, testCheckpoint("m_"+k)); err != nil {
			t.Fatal(err)
		}
	}
	size := ds.Stats().Bytes / 3
	corruptEntry(t, ds, "k2", 3)
	if _, ok := checkpointEntries.load(ds, "k2"); ok {
		t.Fatal("corrupt entry loaded")
	}
	// Live: k1 + k3 (2*size). Quarantined: k2's corpse (size). A budget
	// of 2*size is over-subscribed only because of the corpse, so the GC
	// must delete it and leave both live entries alone.
	ds.SetMaxBytes(2 * size)
	st := ds.Stats()
	if st.Quarantined != 0 || st.QuarantineEvictions != 1 {
		t.Fatalf("stats = %+v, want quarantine evicted for the budget", st)
	}
	if st.Entries != 2 || st.GCEvictions != 0 {
		t.Fatalf("stats = %+v, want both live entries untouched", st)
	}
	for _, k := range []string{"k1", "k3"} {
		if _, ok := checkpointEntries.load(ds, k); !ok {
			t.Fatalf("live entry %s lost to a quarantine corpse", k)
		}
	}
}

// TestDiskStoreGCRacesConcurrentLoads: the byte-budget GC churning
// underneath concurrent Loads and cache promotions must never corrupt
// either tier — every materialize returns the right checkpoint for its
// key (recomputing if the file was evicted mid-probe), and a direct Load
// whose file just vanished is a clean miss, never garbage. Run under
// -race, this is the locking proof for the disk tier.
func TestDiskStoreGCRacesConcurrentLoads(t *testing.T) {
	ds := openTestStore(t)

	var keys []string
	for i := 0; i < 16; i++ {
		keys = append(keys, fmt.Sprintf("k%02d", i))
	}
	for _, k := range keys {
		if err := checkpointEntries.store(ds, k, testCheckpoint("m_"+k)); err != nil {
			t.Fatal(err)
		}
	}
	size := ds.Stats().Bytes / int64(len(keys))

	var wg sync.WaitGroup
	// Budget churner: whipsaw the byte budget so the GC constantly
	// evicts, and re-store keys so there is always something to evict.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if i%2 == 0 {
				ds.SetMaxBytes(size * 4)
			} else {
				ds.SetMaxBytes(0)
			}
			k := keys[i%len(keys)]
			checkpointEntries.store(ds, k, testCheckpoint("m_"+k)) //nolint:errcheck // churn; misses are fine
		}
	}()
	// Promoting readers: materialize through a fresh cache over the
	// shared store, so every read probes the disk and promotes; the
	// compute fallback recomputes keys the GC stole mid-flight.
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[(g*7+i)%len(keys)]
				cache := NewCheckpointCache()
				cache.SetDiskStore(ds)
				ck, _, err := cache.materialize(k, func() (*SynthCheckpoint, error) {
					return testCheckpoint("m_" + k), nil
				})
				if err != nil {
					t.Errorf("materialize %s: %v", k, err)
					return
				}
				if ck == nil || ck.Name != "m_"+k {
					t.Errorf("materialize %s returned wrong checkpoint: %+v", k, ck)
					return
				}
			}
		}(g)
	}
	// Raw readers: a Load racing an eviction is a hit or a clean miss —
	// never an error path, never another key's data.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[(g*5+i)%len(keys)]
				if ck, ok := checkpointEntries.load(ds, k); ok && ck.Name != "m_"+k {
					t.Errorf("Load %s returned %q", k, ck.Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// The store must still be coherent: unbounded again, every key is
	// recomputable and loadable.
	ds.SetMaxBytes(0)
	for _, k := range keys {
		if err := checkpointEntries.store(ds, k, testCheckpoint("m_"+k)); err != nil {
			t.Fatal(err)
		}
		if _, ok := checkpointEntries.load(ds, k); !ok {
			t.Fatalf("key %s unloadable after the churn", k)
		}
	}
	if st := ds.Stats(); st.Corrupt != 0 {
		t.Fatalf("churn corrupted entries: %+v", st)
	}
}

// TestDiskStoreConcurrentStoresWriteOnce: stores encode outside the
// store's lock, so concurrent stores of one key may all encode it —
// but exactly one writes it, and the byte budget counts it once.
func TestDiskStoreConcurrentStoresWriteOnce(t *testing.T) {
	ds := openTestStore(t)
	const writers = 8
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, key := range []string{"shared", fmt.Sprintf("own%d", g)} {
				if err := checkpointEntries.store(ds, key, testCheckpoint("m_"+key)); err != nil {
					t.Errorf("store %s: %v", key, err)
				}
			}
		}(g)
	}
	wg.Wait()
	st := ds.Stats()
	if st.Writes != writers+1 || st.Entries != writers+1 {
		t.Fatalf("stats %+v, want %d writes of %d entries", st, writers+1, writers+1)
	}
	var onDisk int64
	ds.mu.Lock()
	for _, f := range ds.scanLocked(isLiveEntry) {
		onDisk += f.size
	}
	ds.mu.Unlock()
	if st.Bytes != onDisk {
		t.Fatalf("byte budget counts %d bytes, the entries hold %d", st.Bytes, onDisk)
	}
	if ck, ok := checkpointEntries.load(ds, "shared"); !ok || ck.Name != "m_shared" {
		t.Fatalf("shared entry = %+v, %v", ck, ok)
	}
}
