package bitstream

import (
	"testing"

	"presp/internal/fpga"
)

// sinkBitstream keeps benchmark results live.
var sinkBitstream *Bitstream

// benchBoards are the geometries the per-layer bitstream benchmarks
// cover: the paper's Virtex-7 board and an UltraScale+ one.
var benchBoards = []string{"VC707", "VCU118"}

// BenchmarkGeneratePartial measures one compressed partial bitstream
// for an eight-cell partition at 40% LUT fill, about a WAMI region.
func BenchmarkGeneratePartial(b *testing.B) {
	pb := fpga.Pblock{Name: "pb", X0: 0, Y0: 0, X1: 3, Y1: 1}
	for _, board := range benchBoards {
		b.Run(board, func(b *testing.B) {
			dev, err := fpga.ByBoard(board)
			if err != nil {
				b.Fatal(err)
			}
			g := NewGenerator(dev)
			used := pb.ResourcesOn(dev)[fpga.LUT] * 2 / 5
			b.SetBytes(int64(pb.Frames(dev) * dev.FrameWords * 4))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if sinkBitstream, err = g.Partial("bench.rt_1.fft.pbs", pb, used, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerateFull measures one compressed full-device bitstream
// at 40% LUT fill.
func BenchmarkGenerateFull(b *testing.B) {
	for _, board := range benchBoards {
		b.Run(board, func(b *testing.B) {
			dev, err := fpga.ByBoard(board)
			if err != nil {
				b.Fatal(err)
			}
			g := NewGenerator(dev)
			used := dev.Total[fpga.LUT] * 2 / 5
			full := fpga.Pblock{Name: "full", X1: dev.GridCols() - 1, Y1: dev.GridRows() - 1}
			b.SetBytes(int64(full.Frames(dev) * dev.FrameWords * 4))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if sinkBitstream, err = g.FullDevice("bench.bit", used, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
