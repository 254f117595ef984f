package bitstream

import (
	"encoding/binary"
	"fmt"
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

// rleScratch recycles encoders across images and chunks. Concurrent
// bitgen jobs share one Generator; each chunk, and each stitch, takes
// an encoder of its own.
var rleScratch = sync.Pool{New: func() any { return new(rleEncoder) }}

// rleEncoder appends records to out, one finished run at a time. The
// zero value encodes a whole stream. An encoder that encodes one chunk
// of an image also keeps the chunk's boundary state, the parts that may
// continue across its edges and are left for stitch to write:
//
//	lead   the first run, which may extend the previous chunk's trail
//	head   the literal stretch between lead and out's first record,
//	       which may extend the previous chunk's open stretch
//	out    every record that starts and ends inside the chunk
//	lits   the literal stretch after out's last record, still open
//	trail  the last run, still open
//
// A chunk with no record past its lead keeps every literal in lits
// (headOpen stays set), and a chunk that is one run has only a trail
// (lead.n == 0).
type rleEncoder struct {
	out  []byte
	lits []uint32 // the pending literal stretch

	head        []uint32
	headOpen    bool // no record written yet: lits may continue backwards
	lead, trail run
}

// run is n copies of word w.
type run struct {
	w uint32
	n int
}

// encode draws words [lo, hi) of the image seeded by seed as they are
// needed, so the raw payload never exists, and keeps the range's
// boundary state. Word i is configWord(seed+(i+1)·splitmixGamma, cut),
// so any range encodes independently of the others.
func (e *rleEncoder) encode(seed, cut uint64, lo, hi int) {
	e.out, e.lits, e.head = e.out[:0], e.lits[:0], e.head[:0]
	e.headOpen, e.lead = true, run{}
	state := seed + uint64(lo)*splitmixGamma
	cur, n, i := uint32(0), 0, lo
	// The lead ends at the first word that differs from it. Finding it
	// in a loop of its own keeps the per-word loop below branch-light.
	for ; i < hi; i++ {
		state += splitmixGamma
		w := configWord(state, cut)
		if n > 0 && w != cur {
			e.lead = run{cur, n}
			cur, n = w, 1
			i++
			break
		}
		cur, n = w, n+1
	}
	for ; i < hi; i++ {
		state += splitmixGamma
		if w := configWord(state, cut); w != cur {
			e.emit(cur, n)
			cur, n = w, 0
		}
		n++
	}
	e.trail = run{cur, n}
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

// flushLit closes the pending literal stretch with a record — except a
// chunk's first stretch, which becomes its head.
func (e *rleEncoder) flushLit() {
	if e.headOpen {
		e.head, e.lits = e.lits, e.head[:0]
		e.headOpen = false
		return
	}
	if len(e.lits) == 0 {
		return
	}
	e.out = binary.AppendUvarint(append(e.out, 0x01), uint64(len(e.lits)))
	for _, w := range e.lits {
		e.out = binary.LittleEndian.AppendUint32(e.out, w)
	}
	e.lits = e.lits[:0]
}

// stitch writes the stream of chunks, which cover an image in order,
// to e: exactly the records one encoder drawing the whole image writes.
// Runs and literal stretches that cross a chunk edge are joined here;
// the records inside a chunk are copied as they are. Without bodies,
// stitch writes only the joined records — the sizing pass — and
// returns the byte count of the copies it left out.
func (e *rleEncoder) stitch(chunks []Chunk, bodies bool) (skipped int) {
	var open run // the run still open at the previous chunk's end
	join := func(r run) {
		if r.w == open.w || r.n == 0 {
			open.n += r.n
		} else {
			e.emit(open.w, open.n)
			open = r
		}
	}
	for _, c := range chunks {
		ce := c.enc
		if ce.lead.n == 0 { // the chunk is one run, or empty
			join(ce.trail)
			continue
		}
		join(ce.lead)
		e.emit(open.w, open.n)
		if !ce.headOpen {
			e.lits = append(e.lits, ce.head...)
			e.flushLit()
			if bodies {
				e.out = append(e.out, ce.out...)
			} else {
				skipped += len(ce.out)
			}
		}
		e.lits = append(e.lits, ce.lits...)
		open = ce.trail
	}
	e.emit(open.w, open.n)
	e.flushLit()
	return skipped
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
