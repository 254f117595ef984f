package bitstream

import (
	"encoding/binary"
	"testing"
)

// CompressRLE is the reference codec: the three-pass encoder the
// generator used before it fused word drawing with encoding. It copies
// the raw payload into words, then grows its output record by record.
// The fused encoder must produce byte-identical streams.
func CompressRLE(raw []byte) []byte {
	if len(raw)%4 != 0 {
		// Pad to a word boundary; real bitstreams are word aligned.
		pad := 4 - len(raw)%4
		raw = append(append([]byte(nil), raw...), make([]byte, pad)...)
	}
	n := len(raw) / 4
	words := make([]uint32, n)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(raw[i*4:])
	}

	var out []byte
	var lit []uint32
	flushLit := func() {
		if len(lit) == 0 {
			return
		}
		out = append(out, 0x01)
		out = binary.AppendUvarint(out, uint64(len(lit)))
		for _, w := range lit {
			out = binary.LittleEndian.AppendUint32(out, w)
		}
		lit = lit[:0]
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && words[j] == words[i] {
			j++
		}
		run := j - i
		if run >= 4 {
			flushLit()
			out = append(out, 0x00)
			out = binary.AppendUvarint(out, uint64(run))
			out = binary.LittleEndian.AppendUint32(out, words[i])
		} else {
			for k := 0; k < run; k++ {
				lit = append(lit, words[i])
			}
		}
		i = j
	}
	flushLit()
	return out
}

// oracleImage builds the bitstream Generator.image describes, by the
// reference path: materialise the raw payload (the uncompressed image)
// word by word, then compress it with CompressRLE.
func oracleImage(g *Generator, name string, kind Kind, frames int, fill float64, compress bool) *Bitstream {
	raw := rawImage(g.image(name, kind, frames, fill, compress))
	bs := &Bitstream{Name: name, Kind: kind, Frames: frames, RawBytes: len(raw), Data: raw}
	if compress {
		bs.Data = CompressRLE(raw)
		bs.Compressed = true
	}
	bs.Checksum = bs.CRC()
	return bs
}

// rawImage draws every word of im in one loop, as the generator did
// before it encoded images in chunks.
func rawImage(im Image) []byte {
	raw := make([]byte, im.words*4)
	state := im.seed
	for w := 0; w < im.words; w++ {
		state += splitmixGamma
		binary.LittleEndian.PutUint32(raw[w*4:], configWord(state, im.cut))
	}
	return raw
}

// stitchAt encodes im as the chunks between the given word offsets
// (ascending, within [0, im.words]) and stitches them: the split
// Assemble never makes, for boundaries placed anywhere. It also checks
// that the sizing pass measures the stream exactly.
func stitchAt(t testing.TB, im Image, cuts []int) []byte {
	t.Helper()
	bounds := append(append([]int{0}, cuts...), im.words)
	var chunks []Chunk
	for i := 0; i+1 < len(bounds); i++ {
		e := new(rleEncoder)
		e.encode(im.seed, im.cut, bounds[i], bounds[i+1])
		chunks = append(chunks, Chunk{lo: bounds[i], hi: bounds[i+1], enc: e})
	}
	var sizing, s rleEncoder
	copied := sizing.stitch(chunks, false)
	s.stitch(chunks, true)
	if len(sizing.out)+copied != len(s.out) {
		t.Fatalf("cuts %v: sizing pass measured %d bytes, stitch wrote %d", cuts, len(sizing.out)+copied, len(s.out))
	}
	return s.out
}
