// Package bitstream models Xilinx configuration bitstreams at the frame
// level: full-device and partial bitstreams, with the word-oriented
// compression Vivado's BITSTREAM.GENERAL.COMPRESS option applies. The
// PR-ESP flow generates compressed partial bitstreams to reduce the
// memory-access latency of runtime reconfiguration (Section VI), so the
// compressed sizes drive the reconfiguration-time model.
package bitstream

import (
	"fmt"
	"hash/crc32"

	"presp/internal/fpga"
)

// Kind distinguishes full from partial bitstreams.
type Kind int

const (
	// Full configures the whole device.
	Full Kind = iota
	// Partial configures a single reconfigurable partition.
	Partial
)

// String names the kind.
func (k Kind) String() string {
	if k == Partial {
		return "partial"
	}
	return "full"
}

// Bitstream is one generated configuration image. Its bytes are a pure
// function of its Recipe, which is all a persistent store keeps of it:
// the stage cache's disk tier writes the recipe and regenerates the
// image on a hit, verified against Checksum.
type Bitstream struct {
	// Name identifies the image (e.g. "SoC_Y.rt_2.fft.pbs").
	Name string
	// Kind is full or partial.
	Kind Kind
	// Frames is the configuration frame count covered.
	Frames int
	// RawBytes is the uncompressed image size.
	RawBytes int
	// Data is the (possibly compressed) image payload.
	Data []byte
	// Compressed records whether Data is compressed.
	Compressed bool
	// Checksum is the IEEE CRC-32 of Data, recorded at generation time.
	// The runtime manager verifies its private copy of the image against
	// it once, at registration, and a fetch that delivers different
	// bytes (a corrupted copy) again before the ICAP would consume it:
	// real bitstreams carry per-frame CRC words for the same reason — a
	// corrupted configuration image must never reach the fabric. Zero
	// means "no checksum recorded" and disables verification
	// (hand-built images in tests).
	Checksum uint32

	// cut is the configured-word threshold the image was drawn with,
	// the one value its Recipe adds to the fields above; zero for an
	// image no Generator produced.
	cut uint64
}

// Size returns the stored payload size in bytes.
func (b *Bitstream) Size() int { return len(b.Data) }

// SizeKB returns the payload size in binary kilobytes, the unit of the
// paper's Table VI.
func (b *Bitstream) SizeKB() float64 { return float64(len(b.Data)) / 1024.0 }

// CompressionRatio returns raw/stored size.
func (b *Bitstream) CompressionRatio() float64 {
	if len(b.Data) == 0 {
		return 0
	}
	return float64(b.RawBytes) / float64(len(b.Data))
}

// CRC returns the IEEE CRC-32 of the stored payload as it is now.
func (b *Bitstream) CRC() uint32 { return crc32.ChecksumIEEE(b.Data) }

// Verify checks the payload against the generation-time checksum and
// returns an error describing the mismatch. Images without a recorded
// checksum pass.
func (b *Bitstream) Verify() error {
	if b.Checksum == 0 {
		return nil
	}
	if got := b.CRC(); got != b.Checksum {
		return fmt.Errorf("bitstream: %s: CRC mismatch (got %08x, want %08x): image corrupted in transit", b.Name, got, b.Checksum)
	}
	return nil
}

// CorruptedCopy returns a copy of b whose payload has one byte flipped
// at offset mod len(Data) — what a faulted DMA fetch delivers. The
// copy keeps the original checksum, so Verify on it fails (a one-byte
// flip always changes a CRC-32).
func (b *Bitstream) CorruptedCopy(offset int) *Bitstream {
	c := *b
	c.Data = make([]byte, len(b.Data))
	copy(c.Data, b.Data)
	if len(c.Data) > 0 {
		if offset < 0 {
			offset = -offset
		}
		c.Data[offset%len(c.Data)] ^= 0xff
	}
	return &c
}

// Generator produces deterministic frame payloads whose statistics track
// the configured-logic density of the covered fabric, so compressed
// sizes respond to utilization the way real bitstreams do.
type Generator struct {
	dev *fpga.Device
}

// NewGenerator returns a generator for device d.
func NewGenerator(d *fpga.Device) *Generator {
	return &Generator{dev: d}
}

// densityFor maps a fabric fill fraction (used LUTs / region LUTs) to the
// fraction of non-zero configuration words. Even a fully-packed region
// leaves most configuration words at their defaults (routing frames are
// sparse), which is why Vivado's compression is so effective.
func densityFor(fill float64) float64 {
	return 0.015 + 0.095*min(max(fill, 0), 1)
}

// cutFor is the configured-word threshold at fabric fill fill: a word
// is configured when the low half of its draw falls below it.
func cutFor(fill float64) uint64 { return uint64(densityFor(fill) * (1 << 32)) }

// Partial generates the compressed partial bitstream for a partition
// occupying pblock pb with usedLUTs of logic, on behalf of module name,
// in one pass.
func (g *Generator) Partial(name string, pb fpga.Pblock, usedLUTs int, compress bool) (*Bitstream, error) {
	frames := pb.Frames(g.dev)
	if frames <= 0 {
		return nil, fmt.Errorf("bitstream: pblock %s covers no frames", pb.Name)
	}
	fill := 0.0
	if areaLUTs := pb.ResourcesOn(g.dev)[fpga.LUT]; areaLUTs > 0 {
		fill = float64(usedLUTs) / float64(areaLUTs)
	}
	var whole [1]Chunk
	return g.image(name, Partial, frames, fill, compress).Assemble(whole[:]), nil
}

// FullImage describes the full-device bitstream for a design using
// usedLUTs of the fabric. The image is multi-MB, so callers encode it
// in chunks on their own workers (Image.Chunk) and stitch it with
// Image.Assemble.
func (g *Generator) FullImage(name string, usedLUTs int, compress bool) Image {
	fill := float64(usedLUTs) / float64(g.dev.Total[fpga.LUT])
	return g.image(name, Full, fullFrames(g.dev), fill, compress)
}

// fullFrames approximates the frame count of d's full-device image
// from grid geometry.
func fullFrames(d *fpga.Device) int {
	pb := fpga.Pblock{Name: "full", X1: d.GridCols() - 1, Y1: d.GridRows() - 1}
	return pb.Frames(d)
}

// image describes one bitstream of frames frames at fabric fill fill.
func (g *Generator) image(name string, kind Kind, frames int, fill float64, compress bool) Image {
	return Image{
		name: name, kind: kind, frames: frames, words: frames * g.dev.FrameWords,
		seed: hashString(name), cut: cutFor(fill), compress: compress,
	}
}

// Words come from splitmix64 seeded by hashString of the image name (no
// math/rand, so generation is reproducible across Go versions). Each draw
// adds splitmixGamma to a state callers keep in a register-resident local.
const splitmixGamma = 0x9e3779b97f4a7c15

// configWord mixes splitmix64 state into its draw and maps the draw to a
// configuration word: per frame, a deterministic pseudo-random subset of
// words is configured (non-zero), those whose low half falls below cut.
func configWord(state, cut uint64) uint32 {
	z := (state ^ (state >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if uint64(uint32(z)) < cut {
		return uint32(z>>32) | 1
	}
	return 0
}

func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
