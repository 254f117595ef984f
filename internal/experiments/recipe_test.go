package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"presp/internal/bitstream"
	"presp/internal/flow"
	"presp/internal/reconfig"
	"presp/internal/vivado"
	"presp/internal/wami"
)

// TestDiskTierRegeneratesEveryImage is the differential leg between the
// bitstream generator and the images a disk tier hands back: the stage
// cache persists an image as its recipe, and a lookup through a fresh
// cache over the same directory regenerates it. For every preset's full
// and partial images, compressed and not, and every runtime SoC image,
// the regenerated image must equal the generated one byte for byte and
// pass Verify, while the entry on disk stays a recipe, not a payload.
func TestDiskTierRegeneratesEveryImage(t *testing.T) {
	ds, err := vivado.OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	check := func(t *testing.T, want *bitstream.Bitstream) {
		t.Helper()
		n++
		key := fmt.Sprintf("%016x", n)
		writer := vivado.NewStageCache()
		writer.SetDiskStore(ds)
		if err := writer.Store(key, want, 1); err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		if fi, err := os.Stat(filepath.Join(ds.Dir(), key+".art")); err != nil || fi.Size() > 512 {
			t.Fatalf("%s: entry on disk is not a recipe: %v, %v", want.Name, fi, err)
		}
		reader := vivado.NewStageCache()
		reader.SetDiskStore(ds)
		got, minutes, ok := vivado.LookupStage[*bitstream.Bitstream](reader, key)
		if !ok || minutes != 1 {
			t.Fatalf("%s: disk tier did not serve the image (ok=%v, minutes=%v)", want.Name, ok, minutes)
		}
		if !bytes.Equal(got.Data, want.Data) || got.Checksum != want.Checksum || got.Size() != want.Size() {
			t.Fatalf("%s: regenerated image (%d bytes, CRC %08x) differs from the generated one (%d bytes, CRC %08x)",
				want.Name, got.Size(), got.Checksum, want.Size(), want.Checksum)
		}
		if err := got.Verify(); err != nil {
			t.Fatal(err)
		}
	}

	for _, name := range PresetNames() {
		for _, compress := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/compress=%v", name, compress), func(t *testing.T) {
				cfg, err := PresetConfig(name)
				if err != nil {
					t.Fatal(err)
				}
				d, err := elaborate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := flow.RunPRESP(context.Background(), d, flow.Options{Compress: compress})
				if err != nil {
					t.Fatal(err)
				}
				check(t, res.FullBitstream)
				for _, bs := range res.PartialBitstreams {
					check(t, bs)
				}
			})
		}
	}

	reg, err := registry()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range wami.RuntimeSoCNames() {
		t.Run("runtime/"+name, func(t *testing.T) {
			cfg, alloc, err := wami.RuntimeSoC(name)
			if err != nil {
				t.Fatal(err)
			}
			_, bss, err := wami.Boot(cfg, alloc, reg, nil, reconfig.DefaultConfig(), true)
			if err != nil {
				t.Fatal(err)
			}
			var images []*bitstream.Bitstream
			for _, perTile := range bss {
				for _, bs := range perTile {
					images = append(images, bs)
				}
			}
			sort.Slice(images, func(i, j int) bool { return images[i].Name < images[j].Name })
			for _, bs := range images {
				check(t, bs)
			}
		})
	}
}
