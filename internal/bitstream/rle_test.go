package bitstream

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"sort"
	"testing"
	"testing/quick"

	"presp/internal/fpga"
)

// padWords returns data zero-padded to a word boundary, the raw image
// CompressRLE encodes.
func padWords(data []byte) []byte {
	if len(data)%4 == 0 {
		return data
	}
	return append(append([]byte(nil), data...), make([]byte, 4-len(data)%4)...)
}

// streamRLE encodes raw with the streaming encoder, splitting it into
// runs the way rleEncoder.encode does. Generated images hold only zero
// runs and isolated configured words; arbitrary input also reaches
// repeated non-zero words and literal stretches of any length.
func streamRLE(raw []byte) []byte {
	var e rleEncoder
	cur, run := uint32(0), 0
	for i := 0; i+4 <= len(raw); i += 4 {
		if w := binary.LittleEndian.Uint32(raw[i:]); w != cur {
			e.emit(cur, run)
			cur, run = w, 0
		}
		run++
	}
	e.emit(cur, run)
	e.flushLit()
	return e.out
}

func TestRLERoundtripKnown(t *testing.T) {
	raw := make([]byte, 4096)
	for i := 100; i < 140; i++ {
		raw[i] = byte(i)
	}
	comp := CompressRLE(raw)
	back, err := DecompressRLE(comp, len(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, back) {
		t.Fatal("roundtrip corrupted data")
	}
	if len(comp) >= len(raw) {
		t.Fatalf("sparse data did not compress: %d -> %d", len(raw), len(comp))
	}
}

func TestRLERoundtripProperty(t *testing.T) {
	f := func(data []byte) bool {
		raw := padWords(data)
		comp := CompressRLE(data)
		back, err := DecompressRLE(comp, len(raw))
		if err != nil {
			return false
		}
		// Compression pads to a word boundary; the prefix must match
		// and the padding must be zeros.
		return bytes.Equal(back, raw) && bytes.Equal(streamRLE(raw), comp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRLEAllZeros(t *testing.T) {
	raw := make([]byte, 1<<16)
	comp := CompressRLE(raw)
	if len(comp) > 16 {
		t.Fatalf("64KB of zeros should compress to a few bytes, got %d", len(comp))
	}
}

func TestRLEIncompressible(t *testing.T) {
	raw := make([]byte, 4096)
	for i := range raw {
		raw[i] = byte(i*7 + i/13) // no runs
	}
	comp := CompressRLE(raw)
	back, err := DecompressRLE(comp, len(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, back) {
		t.Fatal("roundtrip corrupted data")
	}
	// Overhead must stay small (one literal header).
	if len(comp) > len(raw)+16 {
		t.Fatalf("literal overhead too big: %d -> %d", len(raw), len(comp))
	}
}

// TestStreamEncoderLongLiterals drives literal stretches across the
// one-, two- and three-byte uvarint count boundaries. Generated images
// never get there: their densest fill leaves zero runs every few words.
func TestStreamEncoderLongLiterals(t *testing.T) {
	for _, words := range []int{1, 3, 127, 128, 129, 16383, 16384, 16385} {
		raw := make([]byte, 4*(words+6))
		for i := 0; i < words; i++ {
			binary.LittleEndian.PutUint32(raw[4*i:], uint32(i+1))
		}
		// A zero run of six closes the stretch with a run record.
		if got, want := streamRLE(raw), CompressRLE(raw); !bytes.Equal(got, want) {
			t.Fatalf("%d literal words: streaming encoder differs from the reference codec", words)
		}
		raw = raw[:4*words]
		if got, want := streamRLE(raw), CompressRLE(raw); !bytes.Equal(got, want) {
			t.Fatalf("%d trailing literal words: streaming encoder differs from the reference codec", words)
		}
	}
}

// uvarint is the uvarint encoding of n.
func uvarint(n uint64) []byte { return binary.AppendUvarint(nil, n) }

// record builds one RLE record: tag, uvarint count, then body.
func record(tag byte, count uint64, body ...byte) []byte {
	return append(append([]byte{tag}, uvarint(count)...), body...)
}

func TestDecompressRejectsCorrupt(t *testing.T) {
	word := []byte{1, 2, 3, 4}
	cases := []struct {
		name     string
		data     []byte
		rawBytes int
	}{
		{"unknown tag", []byte{0x05, 0x01}, 16},
		{"run without word", []byte{0x00, 0x04}, 16},
		{"literal count beyond data", []byte{0x01, 0x10, 0x01, 0x02}, 64},
		// int(count)*4 overflowed to a negative slice bound.
		{"literal count 2^61", record(0x01, 1<<61, word...), 16},
		// int(count)*4 wrapped to 4: one word decoded, no error.
		{"literal count 2^62+1", record(0x01, 1<<62+1, word...), 4},
		// Looped appending the word without bound.
		{"huge run count", record(0x00, 1<<40, word...), 16},
		// Complete streams but for a trailing zero-count record, which
		// the encoder never emits.
		{"zero-count run", append(record(0x00, 4, word...), record(0x00, 0, word...)...), 16},
		{"zero-count literal", append(record(0x00, 4, word...), record(0x01, 0)...), 16},
		{"run past raw size", record(0x00, 8, word...), 16},
		{"literal past raw size", record(0x01, 2, append(word, word...)...), 4},
		{"ends short", record(0x00, 4, word...), 32},
		{"raw size not whole words", record(0x00, 4, word...), 15},
		{"negative raw size", nil, -4},
	}
	for _, c := range cases {
		if _, err := DecompressRLE(c.data, c.rawBytes); err == nil {
			t.Errorf("%s: corrupt stream decompressed", c.name)
		}
	}
	if out, err := DecompressRLE(record(0x00, 4, word...), 16); err != nil || len(out) != 16 {
		t.Fatalf("well-formed run rejected: %v", err)
	}
}

// FuzzRLE checks the reference codec round trip and the streaming
// encoder against it on arbitrary bytes, then feeds the same bytes to
// DecompressRLE as a stream: it must fail cleanly or decode exactly
// rawBytes, into a buffer it never grows.
func FuzzRLE(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(make([]byte, 64), uint8(16))
	f.Add([]byte{0x00, 0x04, 1, 2, 3, 4, 0x01, 0x02, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(6))
	f.Add(record(0x01, 1<<62+1, 1, 2, 3, 4), uint8(1))
	f.Add(record(0x00, 1<<40, 1, 2, 3, 4), uint8(64))
	f.Fuzz(func(t *testing.T, data []byte, rawWords uint8) {
		raw := padWords(data)
		comp := CompressRLE(data)
		back, err := DecompressRLE(comp, len(raw))
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if !bytes.Equal(back, raw) {
			t.Fatal("round trip corrupted data")
		}
		if !bytes.Equal(streamRLE(raw), comp) {
			t.Fatal("streaming encoder differs from the reference codec")
		}
		rawBytes := int(rawWords) * 4
		out, err := DecompressRLE(data, rawBytes)
		if err == nil && (len(out) != rawBytes || cap(out) != rawBytes) {
			t.Fatalf("decoded %d bytes (cap %d), want exactly %d", len(out), cap(out), rawBytes)
		}
	})
}

// FuzzFusedEncoder checks that the generator's compressed image is the
// reference codec's encoding of the materialised frames, for any seed
// name, frame count, fill and frame width — assembled from any number
// of equal chunks, and stitched from chunks cut at any word offsets
// (each little-endian uint16 of cuts, modulo the word count plus one;
// repeats make empty chunks).
func FuzzFusedEncoder(f *testing.F) {
	f.Add("SoC_Y.rt_2.fft.pbs", uint16(36), 0.3, uint8(101), uint8(3), []byte{0x10, 0x00, 0x20, 0x00})
	f.Add("soc.bit", uint16(300), 1.0, uint8(93), uint8(6), []byte{})
	f.Add("", uint16(0), 0.0, uint8(93), uint8(1), []byte{1, 0})
	f.Add("x", uint16(1), -1.0, uint8(1), uint8(0), []byte{0, 0, 0, 0, 1, 0})
	f.Add("dense", uint16(4), 1.0, uint8(7), uint8(7), []byte{1, 0, 2, 0, 3, 0, 3, 0, 9, 0})
	f.Fuzz(func(t *testing.T, name string, frames uint16, fill float64, frameWords uint8, k uint8, cutBytes []byte) {
		g := NewGenerator(&fpga.Device{FrameWords: int(frameWords)})
		n := int(frames % 512)
		want := oracleImage(g, name, Partial, n, fill, true)
		im := g.image(name, Partial, n, fill, true)
		got := im.Assemble(make([]Chunk, 1+int(k%8)))
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("%d-chunk encoding differs from the reference (%d vs %d bytes)", 1+k%8, len(got.Data), len(want.Data))
		}
		if got.RawBytes != want.RawBytes || got.Checksum != want.Checksum || cap(got.Data) != len(got.Data) {
			t.Fatalf("image %+v differs from reference %+v, or keeps spare capacity", got, want)
		}
		var cuts []int
		for i := 0; i+1 < len(cutBytes); i += 2 {
			cuts = append(cuts, int(binary.LittleEndian.Uint16(cutBytes[i:]))%(im.words+1))
		}
		sort.Ints(cuts)
		if !bytes.Equal(stitchAt(t, im, cuts), want.Data) {
			t.Fatalf("stitch at %v differs from the reference", cuts)
		}
	})
}

// boundaryCuts returns word offsets of raw that place chunk edges where
// stitching has work to do: inside a long run, inside a literal
// stretch, around a one-word chunk holding a configured word, around a
// chunk that is exactly one run and around a chunk inside a run. Each
// case is its own split, and the last split makes every cut at once.
func boundaryCuts(t *testing.T, raw []byte) [][]int {
	t.Helper()
	words := len(raw) / 4
	word := func(i int) uint32 { return binary.LittleEndian.Uint32(raw[4*i:]) }
	inRun, inLit, oneWord, runLo, runHi := -1, -1, -1, -1, -1
	prevShort := false
	for i := 0; i < words; {
		j := i + 1
		for j < words && word(j) == word(i) {
			j++
		}
		switch n := j - i; {
		case n >= 8 && runLo < 0:
			inRun, runLo, runHi = i+n/2, i, j
		case n > 1 && n < 4 && prevShort && inLit < 0:
			inLit = i + 1
		case n == 1 && word(i) != 0 && oneWord < 0:
			oneWord = i
		}
		prevShort = j-i < 4
		i = j
	}
	if inRun < 0 || inLit < 0 || oneWord < 0 {
		t.Fatalf("image lacks a boundary case: long run at %d, literal stretch at %d, configured word at %d", inRun, inLit, oneWord)
	}
	splits := [][]int{{inRun}, {inLit}, {oneWord, oneWord + 1}, {runLo, runHi}, {runLo + 1, runHi - 1}}
	all := map[int]bool{}
	for _, s := range splits {
		for _, c := range s {
			all[c] = true
		}
	}
	var every []int
	for c := range all {
		every = append(every, c)
	}
	sort.Ints(every)
	return append(splits, every)
}

// TestFusedMatchesOracle is the differential test of the generator
// against the reference path on every supported geometry, assembled
// from 1, 2, 3 and 7 equal chunks and — compressed partial images —
// stitched at the boundary cases of boundaryCuts. The pinned checksums
// (raw, compressed) were captured from the three-pass generator, so
// neither path can drift with the other.
func TestFusedMatchesOracle(t *testing.T) {
	pinned := map[string][2]uint32{
		"VC707/partial/sparse":  {0x072f8a2b, 0x8f534800},
		"VC707/partial/dense":   {0x35ee506a, 0x16e9d23d},
		"VC707/full/sparse":     {0x6b1d9f3e, 0x4f1989f1},
		"VC707/full/dense":      {0x5bd30d61, 0xb84f15eb},
		"VCU118/partial/sparse": {0x2462dd2b, 0xb3fbb7d5},
		"VCU118/partial/dense":  {0x80eef942, 0x0e102e83},
		"VCU118/full/sparse":    {0x6c6bccd9, 0xc20fc11e},
		"VCU118/full/dense":     {0x1ff18ffc, 0x3291816c},
		"VCU128/partial/sparse": {0x8a5e0915, 0x36ff3d53},
		"VCU128/partial/dense":  {0x7ba70231, 0xae2fa51c},
		"VCU128/full/sparse":    {0x0c5dd714, 0x0ef82ee8},
		"VCU128/full/dense":     {0xb225b52a, 0xbd6fea2a},
	}
	pb := fpga.Pblock{Name: "pb", X0: 0, Y0: 0, X1: 3, Y1: 1}
	for _, board := range fpga.Boards() {
		dev, err := fpga.ByBoard(board)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGenerator(dev)
		full := fpga.Pblock{Name: "full", X1: dev.GridCols() - 1, Y1: dev.GridRows() - 1}
		for _, kind := range []Kind{Partial, Full} {
			area, frames := dev.Total[fpga.LUT], full.Frames(dev)
			if kind == Partial {
				area, frames = pb.ResourcesOn(dev)[fpga.LUT], pb.Frames(dev)
			}
			for _, fill := range []string{"sparse", "dense"} {
				used := area
				if fill == "sparse" {
					used = area / 20
				}
				name := board + "/" + kind.String() + "/" + fill
				want, ok := pinned[name]
				if !ok {
					t.Fatalf("%s: no pinned checksums", name)
				}
				for i, compress := range []bool{false, true} {
					fill := float64(used) / float64(area)
					im := g.image(name, kind, frames, fill, compress)
					ref := oracleImage(g, name, kind, frames, fill, compress)
					if kind == Full && g.FullImage(name, used, compress) != im {
						t.Fatalf("%s compress=%v: FullImage describes another image", name, compress)
					}
					if kind == Partial {
						one, err := g.Partial(name, pb, used, compress)
						if err != nil || !bytes.Equal(one.Data, ref.Data) || one.Checksum != ref.Checksum {
							t.Fatalf("%s compress=%v: Partial differs from the reference path (err %v)", name, compress, err)
						}
					}
					for _, k := range []int{1, 2, 3, 7} {
						got := im.Assemble(make([]Chunk, k))
						if !bytes.Equal(got.Data, ref.Data) || got.RawBytes != ref.RawBytes ||
							got.Checksum != ref.Checksum || got.Frames != ref.Frames ||
							got.Kind != ref.Kind || got.Compressed != ref.Compressed || got.Name != ref.Name {
							t.Fatalf("%s compress=%v k=%d: image differs from the reference path", name, compress, k)
						}
						if cap(got.Data) != len(got.Data) {
							t.Fatalf("%s compress=%v k=%d: Data keeps %d bytes of spare capacity", name, compress, k, cap(got.Data)-len(got.Data))
						}
						if got.Checksum != want[i] {
							t.Fatalf("%s compress=%v k=%d: checksum %08x, pinned %08x", name, compress, k, got.Checksum, want[i])
						}
					}
					if !compress {
						continue
					}
					back, err := DecompressRLE(ref.Data, ref.RawBytes)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if crc32.ChecksumIEEE(back) != want[0] {
						t.Fatalf("%s: compressed image does not decode to the raw image", name)
					}
					if kind == Full {
						continue // the partial images hold every boundary case at a fraction of the size
					}
					for _, cuts := range boundaryCuts(t, back) {
						if !bytes.Equal(stitchAt(t, im, cuts), ref.Data) {
							t.Fatalf("%s: stitch at %v differs from the reference path", name, cuts)
						}
					}
				}
			}
		}
	}
}
