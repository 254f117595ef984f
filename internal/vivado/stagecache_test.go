package vivado

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestStageCacheMemoryRoundTrip(t *testing.T) {
	sc := NewStageCache()
	if _, ok := sc.Lookup("abc"); ok {
		t.Fatal("lookup on empty cache hit")
	}
	body := []byte(`{"minutes":12.5,"payload":{"x":1}}`)
	if err := sc.Store("abc", body); err != nil {
		t.Fatalf("store: %v", err)
	}
	got, ok := sc.Lookup("abc")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("lookup = %q, %v; want stored body", got, ok)
	}
	// First store wins: a second store of the same key keeps the original.
	if err := sc.Store("abc", []byte(`{"other":true}`)); err != nil {
		t.Fatalf("re-store: %v", err)
	}
	got, _ = sc.Lookup("abc")
	if !bytes.Equal(got, body) {
		t.Fatalf("re-store replaced entry: %q", got)
	}
	hits, misses := sc.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 2, 1", hits, misses)
	}
	if sc.Len() != 1 {
		t.Fatalf("len = %d; want 1", sc.Len())
	}
}

func TestStageCacheRejectsEmpty(t *testing.T) {
	sc := NewStageCache()
	if err := sc.Store("", []byte(`{}`)); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := sc.Store("k", nil); err == nil {
		t.Fatal("empty body accepted")
	}
}

func TestStageCacheDiskWriteThroughAndReadThrough(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	sc := NewStageCache()
	sc.SetDiskStore(ds)
	body := []byte(`{"minutes":3,"payload":"x"}`)
	if err := sc.Store("feedbeef", body); err != nil {
		t.Fatalf("store: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "feedbeef"+artifactEntries.ext)); err != nil {
		t.Fatalf("artifact not written through: %v", err)
	}

	// A fresh cache over the same store must read the artifact back —
	// that is the warm-restart path — and promote it into memory.
	ds2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	sc2 := NewStageCache()
	sc2.SetDiskStore(ds2)
	got, ok := sc2.Lookup("feedbeef")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("read-through = %q, %v; want stored body", got, ok)
	}
	if sc2.Len() != 1 {
		t.Fatalf("disk hit not promoted: len = %d", sc2.Len())
	}
	// Promoted: the second lookup is a memory hit even if the file goes.
	os.Remove(filepath.Join(dir, "feedbeef"+artifactEntries.ext))
	if _, ok := sc2.Lookup("feedbeef"); !ok {
		t.Fatal("promoted entry lost")
	}
}

func TestStageCacheCorruptArtifactQuarantined(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	sc := NewStageCache()
	sc.SetDiskStore(ds)
	if err := sc.Store("cafef00d", []byte(`{"v":1}`)); err != nil {
		t.Fatalf("store: %v", err)
	}
	path := filepath.Join(dir, "cafef00d"+artifactEntries.ext)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupt: %v", err)
	}

	fresh := NewStageCache()
	fresh.SetDiskStore(ds)
	if _, ok := fresh.Lookup("cafef00d"); ok {
		t.Fatal("corrupt artifact served")
	}
	if _, err := os.Stat(path + diskQuarantineExt); err != nil {
		t.Fatalf("corrupt artifact not quarantined: %v", err)
	}
	if st := ds.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d; want 1", st.Corrupt)
	}
}

func TestDiskStoreVerifyAllChecksArtifacts(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := artifactEntries.store(ds, "aa11", []byte(`{"ok":true}`)); err != nil {
		t.Fatalf("store artifact: %v", err)
	}
	// Plant a torn artifact next to the good one; reopen must quarantine
	// it while keeping the verified entry.
	bad := filepath.Join(dir, "bb22"+artifactEntries.ext)
	if err := os.WriteFile(bad, []byte("torn"), 0o644); err != nil {
		t.Fatalf("plant: %v", err)
	}
	ds2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	st := ds2.Stats()
	if st.Entries != 1 || st.Corrupt != 1 || st.Quarantined != 1 {
		t.Fatalf("stats after reopen = %+v; want 1 live, 1 corrupt, 1 quarantined", st)
	}
	if _, ok := artifactEntries.load(ds2, "aa11"); !ok {
		t.Fatal("verified artifact not loadable")
	}
}

func TestStoreArtifactRejectsInvalidJSON(t *testing.T) {
	ds, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := artifactEntries.store(ds, "k1", []byte("not json")); err == nil {
		t.Fatal("invalid JSON body accepted")
	}
	if err := artifactEntries.store(ds, "", []byte(`{}`)); err == nil {
		t.Fatal("empty key accepted")
	}
}
