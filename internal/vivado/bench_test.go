package vivado

import (
	"context"
	"fmt"
	"testing"

	"presp/internal/bitstream"
	"presp/internal/floorplan"
	"presp/internal/fpga"
)

// BenchmarkDiskStore measures the disk tier's two directions on the
// stage artifacts it persists most: a VC707 full-device image (stored
// as its recipe; a load regenerates the image and checks it against the
// recorded checksum) and a sixteen-partition floorplan. A store writes
// a fresh key each iteration — re-storing a present key is a no-op.
func BenchmarkDiskStore(b *testing.B) {
	dev := fpga.VC707()
	full := bitstream.NewGenerator(dev).FullImage("bench.bit", dev.Total[fpga.LUT]*2/5, true).Assemble(make([]bitstream.Chunk, 1))
	plan := benchPlan()
	artifacts := []struct {
		name   string
		value  any
		decode func([]byte) (stageArtifact, error)
	}{
		{"full-vc707", full, decodeArtifact[*bitstream.Bitstream]},
		{"floorplan", plan, decodeArtifact[*floorplan.Plan]},
	}
	for _, a := range artifacts {
		art := stageArtifact{value: a.value, minutes: 3}
		b.Run(a.name+"/store", func(b *testing.B) {
			ds := openTestStore(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := artifactEntries.store(ds, fmt.Sprintf("%016x", i), art); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(a.name+"/load", func(b *testing.B) {
			ds := openTestStore(b)
			if err := artifactEntries.store(ds, "k", art); err != nil {
				b.Fatal(err)
			}
			read := artifactEntries
			read.decode = a.decode
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := read.load(ds, "k"); !ok {
					b.Fatal("stored artifact missed")
				}
			}
		})
	}
}

// benchPlan is a sixteen-partition floorplan, the stage artifact the
// store-layer benchmarks move.
func benchPlan() *floorplan.Plan {
	plan := &floorplan.Plan{Pblocks: map[string]fpga.Pblock{}, RPFraction: 0.29, FreeCells: 40}
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("rt_%d_rp", i+1)
		plan.Pblocks[name] = fpga.Pblock{Name: name, X0: i % 8, Y0: i / 8, X1: i % 8, Y1: i / 8}
	}
	return plan
}

// BenchmarkCheckpointHit measures the memory tier's checkpoint hit as
// the flow takes it: a keyed Synthesize on a warm cache, no fault hook.
func BenchmarkCheckpointHit(b *testing.B) {
	tool, err := New(fpga.VC707(), nil)
	if err != nil {
		b.Fatal(err)
	}
	tool.SetCache(NewCheckpointCache())
	m := testModule("acc", 20000)
	key := tool.CheckpointKey(m, true)
	ctx := context.Background()
	if _, err := tool.Synthesize(ctx, key, m, true, "rt_1_rp"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tool.Synthesize(ctx, key, m, true, "rt_1_rp"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageHit measures the memory tier's stage hit: LookupStage
// of a cached sixteen-partition floorplan.
func BenchmarkStageHit(b *testing.B) {
	sc := NewStageCache()
	if err := sc.Store("k", benchPlan(), 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := LookupStage[*floorplan.Plan](sc, "k"); !ok {
			b.Fatal("cached floorplan missed")
		}
	}
}
