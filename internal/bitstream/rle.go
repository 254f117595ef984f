package bitstream

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// Compressed payloads use a word-oriented run-length code in the spirit
// of Vivado's compression mode. The stream is a sequence of records:
//
//	0x00 <uvarint n> <word>    — the word repeats n times (n >= 4)
//	0x01 <uvarint n> <n words> — n literal words
//
// Shorter runs join the pending literal stretch, which is flushed before
// each run record and at the end of the stream.

// rleScratch recycles encoders across images. Concurrent bitgen jobs
// share one Generator; each call takes an encoder of its own.
var rleScratch = sync.Pool{New: func() any { return new(rleEncoder) }}

// compressedFrames encodes words configuration words as they are drawn,
// so the raw payload never exists, and returns an exact-size copy: the
// reconfiguration manager keeps every registered image alive.
func compressedFrames(seedName string, words int, density float64) []byte {
	e := rleScratch.Get().(*rleEncoder)
	defer rleScratch.Put(e)
	// 16 bytes per configured word covers the ~12 an image needs.
	e.out = slices.Grow(e.out[:0], int(16*density*float64(words))+16)
	state, cut := hashString(seedName), uint64(density*(1<<32))
	cur, run := uint32(0), 0 // a first zero word extends this empty run
	for i := 0; i < words; i++ {
		state += splitmixGamma
		if w := configWord(state, cut); w != cur {
			e.emit(cur, run)
			cur, run = w, 0
		}
		run++
	}
	e.emit(cur, run)
	e.flushLit()
	return append(make([]byte, 0, len(e.out)), e.out...)
}

// rleEncoder appends records to out, one finished run at a time.
type rleEncoder struct {
	out  []byte
	lits []uint32 // the pending literal stretch
}

// emit encodes a run of n copies of w.
func (e *rleEncoder) emit(w uint32, n int) {
	if n < 4 {
		for ; n > 0; n-- {
			e.lits = append(e.lits, w)
		}
		return
	}
	e.flushLit()
	e.out = binary.AppendUvarint(append(e.out, 0x00), uint64(n))
	e.out = binary.LittleEndian.AppendUint32(e.out, w)
}

func (e *rleEncoder) flushLit() {
	if len(e.lits) == 0 {
		return
	}
	e.out = binary.AppendUvarint(append(e.out, 0x01), uint64(len(e.lits)))
	for _, w := range e.lits {
		e.out = binary.LittleEndian.AppendUint32(e.out, w)
	}
	e.lits = e.lits[:0]
}

// DecompressRLE decodes an RLE payload that must expand to exactly
// rawBytes bytes (Bitstream.RawBytes). Each count is checked against the
// input left and the output still owed before it is used, so a corrupt
// stream fails with an error and never allocates past rawBytes.
func DecompressRLE(data []byte, rawBytes int) ([]byte, error) {
	if rawBytes < 0 || rawBytes%4 != 0 {
		return nil, fmt.Errorf("bitstream: raw size %d is not a whole number of words", rawBytes)
	}
	out, at := make([]byte, rawBytes), 0
	for pos := 0; pos < len(data); {
		tag, start := data[pos], pos
		count, n := binary.Uvarint(data[pos+1:])
		pos += 1 + n
		bodyWords := uint64(1) // a run record carries its word
		if tag == 0x01 {
			bodyWords = count
		}
		switch {
		case tag > 0x01:
			return nil, fmt.Errorf("bitstream: unknown RLE tag 0x%02x at offset %d", tag, start)
		case n <= 0 || count == 0:
			return nil, fmt.Errorf("bitstream: corrupt RLE count at offset %d", start)
		case count > uint64(rawBytes-at)/4:
			return nil, fmt.Errorf("bitstream: RLE record at offset %d expands past %d raw bytes", start, rawBytes)
		case bodyWords > uint64(len(data)-pos)/4:
			return nil, fmt.Errorf("bitstream: truncated RLE record at offset %d", start)
		}
		if tag == 0x00 {
			for end := at + 4*int(count); at < end; at += 4 {
				copy(out[at:], data[pos:pos+4])
			}
		} else {
			at += copy(out[at:], data[pos:pos+4*int(count)])
		}
		pos += 4 * int(bodyWords)
	}
	if at != rawBytes {
		return nil, fmt.Errorf("bitstream: RLE stream ends at %d of %d raw bytes", at, rawBytes)
	}
	return out, nil
}
