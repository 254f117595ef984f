package bitstream

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Image is one bitstream to generate, fixed before any word is drawn.
// Its words can be encoded in independent ranges (Chunk) on any number
// of goroutines and stitched (Assemble) into the bytes a single pass
// would produce: word i is configWord(seed+(i+1)·splitmixGamma, cut),
// so no range depends on another.
type Image struct {
	name      string
	kind      Kind
	frames    int
	words     int
	seed, cut uint64
	density   float64 // fraction of configured words, for buffer sizing
	compress  bool
}

// Name returns the image name.
func (im Image) Name() string { return im.name }

// Chunk is one encoded word range of an Image, held until Assemble
// stitches it; the zero Chunk is a range not yet encoded. Its buffers
// come from a pool and go back to it when Assemble consumes the chunk.
type Chunk struct {
	lo, hi int
	enc    *rleEncoder
}

// Chunk encodes the i-th of k equal word ranges of the image.
func (im Image) Chunk(i, k int) Chunk {
	if k < 1 || i < 0 || i >= k {
		panic(fmt.Sprintf("bitstream: chunk %d of %d", i, k))
	}
	lo, hi := i*im.words/k, (i+1)*im.words/k
	e := rleScratch.Get().(*rleEncoder)
	if im.compress {
		// 16 bytes per configured word covers the ~12 an image needs, so
		// the buffer is sized once even when the pool comes back empty.
		e.out = slices.Grow(e.out[:0], int(16*im.density*float64(hi-lo))+16)
		e.encode(im.seed, im.cut, lo, hi)
	} else {
		e.out = slices.Grow(e.out[:0], 4*(hi-lo))
		state := im.seed + uint64(lo)*splitmixGamma
		for w := lo; w < hi; w++ {
			state += splitmixGamma
			e.out = binary.LittleEndian.AppendUint32(e.out, configWord(state, im.cut))
		}
	}
	return Chunk{lo: lo, hi: hi, enc: e}
}

// Assemble stitches the image from chunks, the ranges Chunk(i,
// len(chunks)) in order, and records its checksum. It encodes any slot
// left zero itself, so a slice of one zero Chunk generates the image in
// a single pass. The bytes are the same for every split. Assemble
// consumes the chunks: their buffers return to the pool and their
// slots are zeroed.
func (im Image) Assemble(chunks []Chunk) *Bitstream {
	k := len(chunks)
	for i, c := range chunks {
		if c.enc == nil {
			chunks[i] = im.Chunk(i, k)
		} else if c.lo != i*im.words/k || c.hi != (i+1)*im.words/k {
			panic(fmt.Sprintf("bitstream: %s: chunk %d of %d covers words [%d, %d)", im.name, i, k, c.lo, c.hi))
		}
	}
	bs := &Bitstream{Name: im.name, Kind: im.kind, Frames: im.frames, RawBytes: im.words * 4, Compressed: im.compress}
	if im.compress {
		// Size the image exactly before writing it: the reconfiguration
		// manager keeps every registered image alive.
		s := rleScratch.Get().(*rleEncoder)
		s.out, s.lits, s.headOpen = s.out[:0], s.lits[:0], false
		copied := s.stitch(chunks, false)
		scratch := s.out
		s.out = make([]byte, 0, len(scratch)+copied)
		s.stitch(chunks, true)
		bs.Data, s.out = s.out, scratch
		rleScratch.Put(s)
	} else {
		bs.Data = make([]byte, 0, im.words*4)
		for _, c := range chunks {
			bs.Data = append(bs.Data, c.enc.out...)
		}
	}
	for i, c := range chunks {
		rleScratch.Put(c.enc)
		chunks[i] = Chunk{}
	}
	bs.Checksum = bs.CRC()
	return bs
}
