package vivado

import (
	"os"
	"path/filepath"
	"testing"
)

// testStage is a stand-in stage payload: a pointer type, like every
// value the flow layer stores.
type testStage struct {
	Name  string
	Words []int
}

func TestStageCacheMemoryRoundTrip(t *testing.T) {
	sc := NewStageCache()
	if _, _, ok := LookupStage[*testStage](sc, "abc"); ok {
		t.Fatal("lookup on empty cache hit")
	}
	v := &testStage{Name: "plan", Words: []int{1, 2}}
	if err := sc.Store("abc", v, 12.5); err != nil {
		t.Fatalf("store: %v", err)
	}
	// A memory hit serves the stored value itself, minutes included.
	got, minutes, ok := LookupStage[*testStage](sc, "abc")
	if !ok || got != v || minutes != 12.5 {
		t.Fatalf("lookup = %p, %v, %v; want the stored %p at 12.5", got, minutes, ok, v)
	}
	// First store wins: a second store of the same key keeps the original.
	if err := sc.Store("abc", &testStage{Name: "other"}, 1); err != nil {
		t.Fatalf("re-store: %v", err)
	}
	if got, minutes, _ = LookupStage[*testStage](sc, "abc"); got != v || minutes != 12.5 {
		t.Fatalf("re-store replaced entry: %+v at %v", got, minutes)
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
	if err := sc.Store("", &testStage{}, 0); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := sc.Store("k", nil, 0); err == nil {
		t.Fatal("nil value accepted")
	}
	if _, _, ok := LookupStage[*testStage](sc, ""); ok {
		t.Fatal("empty key hit")
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
	v := &testStage{Name: "x", Words: []int{7}}
	if err := sc.Store("feedbeef", v, 3); err != nil {
		t.Fatalf("store: %v", err)
	}
	body, err := os.ReadFile(filepath.Join(dir, "feedbeef"+artifactEntries.ext))
	if err != nil {
		t.Fatalf("artifact not written through: %v", err)
	}
	if want := `{"minutes":3,"payload":{"Name":"x","Words":[7]}}`; string(body[:len(want)]) != want {
		t.Fatalf("on-disk body %q, want prefix %q", body, want)
	}

	// A fresh cache over the same store must read the artifact back —
	// that is the warm-restart path — and promote it into memory.
	ds2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	sc2 := NewStageCache()
	sc2.SetDiskStore(ds2)
	got, minutes, ok := LookupStage[*testStage](sc2, "feedbeef")
	if !ok || got.Name != "x" || len(got.Words) != 1 || got.Words[0] != 7 || minutes != 3 {
		t.Fatalf("read-through = %+v, %v, %v; want the stored value", got, minutes, ok)
	}
	if sc2.Len() != 1 {
		t.Fatalf("disk hit not promoted: len = %d", sc2.Len())
	}
	// Promoted: the second lookup is a memory hit — the same decoded
	// value — even if the file goes.
	os.Remove(filepath.Join(dir, "feedbeef"+artifactEntries.ext))
	if again, _, ok := LookupStage[*testStage](sc2, "feedbeef"); !ok || again != got {
		t.Fatal("promoted entry lost or decoded again")
	}
	if st := ds2.Stats(); st.Hits != 1 {
		t.Fatalf("disk hits = %d; want 1 (one promotion)", st.Hits)
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
	if err := sc.Store("cafef00d", &testStage{Name: "v"}, 1); err != nil {
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
	if _, _, ok := LookupStage[*testStage](fresh, "cafef00d"); ok {
		t.Fatal("corrupt artifact served")
	}
	if _, err := os.Stat(path + diskQuarantineExt); err != nil {
		t.Fatalf("corrupt artifact not quarantined: %v", err)
	}
	if st := ds.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d; want 1", st.Corrupt)
	}
	if hits, misses := fresh.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 0, 1", hits, misses)
	}
}

// TestStageCacheUndecodableIsMiss: a CRC-valid body whose payload does
// not decode into the reader's type is quarantined and counted as one
// miss — never as a hit that the reader then discards.
func TestStageCacheUndecodableIsMiss(t *testing.T) {
	ds := openTestStore(t)
	if err := artifactEntries.store(ds, "beef", stageArtifact{value: []int{1, 2}, minutes: 4}); err != nil {
		t.Fatal(err)
	}
	sc := NewStageCache()
	sc.SetDiskStore(ds)
	if _, _, ok := LookupStage[*testStage](sc, "beef"); ok {
		t.Fatal("mistyped artifact served")
	}
	if hits, misses := sc.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 0, 1", hits, misses)
	}
	if st := ds.Stats(); st.Corrupt != 1 || st.Entries != 0 {
		t.Fatalf("undecodable artifact not quarantined: %+v", st)
	}
}

func TestDiskStoreVerifyAllChecksArtifacts(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := artifactEntries.store(ds, "aa11", stageArtifact{value: map[string]bool{"ok": true}}); err != nil {
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
	read := artifactEntries
	read.decode = decodeArtifact[map[string]bool]
	if a, ok := read.load(ds2, "aa11"); !ok || !a.value.(map[string]bool)["ok"] {
		t.Fatal("verified artifact not loadable")
	}
}

// TestStoreArtifactRejectsInvalidJSON: a value encoding/json cannot
// encode never reaches disk, and neither does an empty key.
func TestStoreArtifactRejectsInvalidJSON(t *testing.T) {
	ds, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := artifactEntries.store(ds, "k1", stageArtifact{value: make(chan int)}); err == nil {
		t.Fatal("unencodable value accepted")
	}
	if err := artifactEntries.store(ds, "", stageArtifact{value: 1}); err == nil {
		t.Fatal("empty key accepted")
	}
	if st := ds.Stats(); st.Entries != 0 {
		t.Fatalf("rejected artifacts reached disk: %+v", st)
	}
}
