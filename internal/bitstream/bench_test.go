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

// benchChunks is the number of chunks the flow splits a full-device
// image into.
const benchChunks = 4

// BenchmarkGenerateFull measures one compressed full-device bitstream
// at 40% LUT fill, whole (every chunk encoded in turn, then stitched)
// and by layer: encoding one chunk of benchChunks, and stitching the
// encoded chunks alone.
func BenchmarkGenerateFull(b *testing.B) {
	for _, board := range benchBoards {
		b.Run(board, func(b *testing.B) {
			dev, err := fpga.ByBoard(board)
			if err != nil {
				b.Fatal(err)
			}
			im := NewGenerator(dev).FullImage("bench.bit", dev.Total[fpga.LUT]*2/5, true)
			rawBytes := int64(im.words * 4)
			b.Run("image", func(b *testing.B) {
				b.SetBytes(rawBytes)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkBitstream = im.Assemble(make([]Chunk, benchChunks))
				}
			})
			b.Run("chunk", func(b *testing.B) {
				b.SetBytes(rawBytes / benchChunks)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c := im.Chunk(i%benchChunks, benchChunks)
					rleScratch.Put(c.enc)
				}
			})
			b.Run("stitch", func(b *testing.B) {
				chunks := make([]Chunk, benchChunks)
				b.SetBytes(rawBytes)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for c := range chunks {
						chunks[c] = im.Chunk(c, benchChunks)
					}
					b.StartTimer()
					sinkBitstream = im.Assemble(chunks)
				}
			})
		})
	}
}
