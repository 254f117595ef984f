package bitstream

import (
	"encoding/binary"
	"fmt"
	"slices"

	"presp/internal/fpga"
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
		// 16 bytes per configured word (a fraction cut/2^32 of them)
		// covers the ~12 an image needs, so the buffer is sized once even
		// when the pool comes back empty.
		e.out = slices.Grow(e.out[:0], int(16*float64(im.cut)/(1<<32)*float64(hi-lo))+16)
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
	bs := &Bitstream{Name: im.name, Kind: im.kind, Frames: im.frames, RawBytes: im.words * 4, Compressed: im.compress, cut: im.cut}
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

// Recipe is what regenerates a generated image byte for byte: the
// Bitstream fields that describe it, plus the configured-word threshold
// it was drawn with. The word count is RawBytes/4 and the draw seed is
// the hash of Name, so the payload itself is not part of it. It is the
// form a bitstream takes at rest, where the bytes would cost more to
// store and read back than to draw again.
type Recipe struct {
	Name       string
	Kind       Kind
	Frames     int
	RawBytes   int
	Compressed bool
	Checksum   uint32
	Cut        uint64
}

// maxRawBytes is the raw size of the largest full-device image of any
// supported board: no recipe describes a larger one.
var maxRawBytes = func() int {
	n := 0
	for _, board := range fpga.Boards() {
		d, err := fpga.ByBoard(board)
		if err != nil {
			panic(err)
		}
		n = max(n, fullFrames(d)*d.FrameWords*4)
	}
	return n
}()

// Recipe returns what regenerates b, and false for an image no
// Generator produced (a hand-built one), which has none.
func (b *Bitstream) Recipe() (Recipe, bool) {
	if b.cut == 0 {
		return Recipe{}, false
	}
	return Recipe{
		Name: b.Name, Kind: b.Kind, Frames: b.Frames, RawBytes: b.RawBytes,
		Compressed: b.Compressed, Checksum: b.Checksum, Cut: b.cut,
	}, true
}

// Generate regenerates the image r describes, in one pass. The recipe
// is checked before any word is drawn — a whole word count no larger
// than the largest supported full-device image, a known kind, and a
// threshold some fabric fill produces — so a hostile recipe cannot make
// it allocate without bound. The image must then reproduce r.Checksum:
// a recipe that describes no generated image yields an error, never a
// wrong image.
func (r Recipe) Generate() (*Bitstream, error) {
	switch {
	case r.RawBytes <= 0 || r.RawBytes%4 != 0 || r.RawBytes > maxRawBytes:
		return nil, fmt.Errorf("bitstream: recipe %q: %d raw bytes is no whole word count up to %d", r.Name, r.RawBytes, maxRawBytes)
	case r.Frames <= 0 || (r.Kind != Full && r.Kind != Partial):
		return nil, fmt.Errorf("bitstream: recipe %q: kind %d with %d frames", r.Name, r.Kind, r.Frames)
	case r.Cut < cutFor(0) || r.Cut > cutFor(1):
		return nil, fmt.Errorf("bitstream: recipe %q: threshold %#x is outside [%#x, %#x]", r.Name, r.Cut, cutFor(0), cutFor(1))
	}
	im := Image{
		name: r.Name, kind: r.Kind, frames: r.Frames, words: r.RawBytes / 4,
		seed: hashString(r.Name), cut: r.Cut, compress: r.Compressed,
	}
	var whole [1]Chunk
	bs := im.Assemble(whole[:])
	if bs.Checksum != r.Checksum {
		return nil, fmt.Errorf("bitstream: recipe %q: regenerated image has CRC %08x, recipe records %08x", r.Name, bs.Checksum, r.Checksum)
	}
	return bs, nil
}
