package vivado

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"presp/internal/bitstream"
	"presp/internal/crcframe"
	"presp/internal/fpga"
)

// testImage generates a small compressed partial image on the VC707.
func testImage(tb testing.TB) *bitstream.Bitstream {
	tb.Helper()
	dev := fpga.VC707()
	pb := fpga.Pblock{Name: "rt_1_rp", X1: 1, Y1: 0}
	bs, err := bitstream.NewGenerator(dev).Partial("test.rt_1.fft.pbs", pb, pb.ResourcesOn(dev)[fpga.LUT]/3, true)
	if err != nil {
		tb.Fatal(err)
	}
	return bs
}

// TestStageCacheImageAsRecipe: an image reaches the disk tier as its
// recipe — no payload bytes — and a fresh cache over the store
// regenerates it equal to the generated one. A hand-built image has no
// recipe: the memory tier keeps it, the disk tier does not.
func TestStageCacheImageAsRecipe(t *testing.T) {
	ds := openTestStore(t)
	sc := NewStageCache()
	sc.SetDiskStore(ds)
	want := testImage(t)
	if err := sc.Store("1111", want, 2.5); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(ds.Dir(), "1111"+artifactEntries.ext))
	if err != nil {
		t.Fatal(err)
	}
	body, err := crcframe.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	var b artifactBody[map[string]any]
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Payload["Data"]; ok || b.Payload["Cut"] == nil || b.Minutes != 2.5 {
		t.Fatalf("image entry is not a recipe: %s", body)
	}

	fresh := NewStageCache()
	fresh.SetDiskStore(ds)
	got, minutes, ok := LookupStage[*bitstream.Bitstream](fresh, "1111")
	if !ok || minutes != 2.5 || got == want || !reflect.DeepEqual(got, want) {
		t.Fatalf("disk hit = %+v, %v, %v; want a regenerated copy of %s", got, minutes, ok, want.Name)
	}

	hand := &bitstream.Bitstream{Name: "hand.pbs", Kind: bitstream.Partial, Frames: 1, RawBytes: 4, Data: []byte{1, 2, 3, 4}}
	if err := sc.Store("2222", hand, 1); err == nil {
		t.Fatal("hand-built image persisted")
	}
	if _, err := os.Stat(filepath.Join(ds.Dir(), "2222"+artifactEntries.ext)); !os.IsNotExist(err) {
		t.Fatalf("hand-built image written: %v", err)
	}
	if got, _, ok := LookupStage[*bitstream.Bitstream](sc, "2222"); !ok || got != hand {
		t.Fatal("memory tier lost the hand-built image")
	}
}

// recipeAllocBound is what decoding one recipe body of n bytes may
// allocate: the image of the largest supported full device twice over
// (the encoder's scratch and the image) plus the parse of the body.
func recipeAllocBound(n int) uint64 {
	largest := 0
	for _, board := range fpga.Boards() {
		d, err := fpga.ByBoard(board)
		if err != nil {
			panic(err)
		}
		pb := fpga.Pblock{X1: d.GridCols() - 1, Y1: d.GridRows() - 1}
		largest = max(largest, pb.Frames(d)*d.FrameWords*4)
	}
	return uint64(2*largest + 32*n + 1<<20)
}

// FuzzArtifactRecipe feeds arbitrary CRC-valid bodies to the disk tier
// under a bitstream key. Each must either decode to an image that
// reproduces its checksum or be a counted miss — never a panic, and
// never an allocation past recipeAllocBound.
func FuzzArtifactRecipe(f *testing.F) {
	recipe := mustEncode(f, artifactEntries, stageArtifact{value: testImage(f), minutes: 2})
	f.Add(recipe)
	f.Add(bytes.Replace(recipe, []byte(`"Cut":`), []byte(`"Cut":1`), 1))
	f.Add(bytes.Replace(recipe, []byte(`"RawBytes":`), []byte(`"RawBytes":9`), 1))
	f.Add(bytes.Replace(recipe, []byte(`"Kind":1`), []byte(`"Kind":7`), 1))
	f.Add([]byte(`{"minutes":1,"payload":{"Name":"x","Kind":0,"Frames":1,"RawBytes":2147483644,"Compressed":false,"Checksum":1,"Cut":200000000}}`))
	f.Add([]byte(`{"minutes":1,"payload":{"Name":"x","Kind":1,"Frames":1,"RawBytes":404,"Data":"AAAA","Compressed":false,"Checksum":1}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		ds := openTestStore(t)
		if err := os.WriteFile(filepath.Join(ds.Dir(), "k"+artifactEntries.ext), crcframe.Seal(body), 0o644); err != nil {
			t.Fatal(err)
		}
		sc := NewStageCache()
		sc.SetDiskStore(ds)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bs, _, ok := LookupStage[*bitstream.Bitstream](sc, "k")
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, recipeAllocBound(len(body)); alloc > bound {
			t.Fatalf("decoding a %d-byte body allocated %d bytes, past the bound %d", len(body), alloc, bound)
		}
		if ok {
			if bs.CRC() != bs.Checksum {
				t.Fatalf("decoded image %s does not reproduce its checksum", bs.Name)
			}
			return
		}
		if bytes.Equal(body, recipe) {
			t.Fatal("pristine recipe rejected")
		}
		if hits, misses := sc.Stats(); hits != 0 || misses != 1 {
			t.Fatalf("rejected body counted as %d hits, %d misses", hits, misses)
		}
		if st := ds.Stats(); st.Misses != 1 || st.Hits != 0 {
			t.Fatalf("rejected body not a counted disk miss: %+v", st)
		}
	})
}
