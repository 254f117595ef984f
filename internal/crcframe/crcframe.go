// Package crcframe is the CRC-trailered record framing shared by the
// job write-ahead log and the checkpoint disk tier: a body as one line,
// then the line "crc32:%08x\n" holding the CRC-32 (IEEE) of everything
// before it, the body's newline included.
package crcframe

import (
	"bytes"
	"fmt"
	"hash/crc32"
)

// TrailerLen is the fixed byte length of the trailer line: "crc32:" + 8
// hex digits + "\n".
const TrailerLen = len("crc32:") + 8 + 1

// Seal returns body as one line followed by its CRC trailer. body is
// not modified.
func Seal(body []byte) []byte {
	out := make([]byte, 0, len(body)+1+TrailerLen)
	out = append(append(out, body...), '\n')
	return fmt.Appendf(out, "crc32:%08x\n", crc32.ChecksumIEEE(out))
}

// Open verifies one sealed record — trailer present, byte-exact, CRC
// matching — and returns the body without its terminating newline. Any
// error means the record cannot be trusted.
func Open(data []byte) ([]byte, error) {
	if len(data) < TrailerLen {
		return nil, fmt.Errorf("short entry (%d bytes)", len(data))
	}
	body := data[:len(data)-TrailerLen]
	trailer := data[len(data)-TrailerLen:]
	// Byte-exact trailer parse — no fmt scanning, whose whitespace
	// leniency would bless a damaged terminator (found by FuzzDiskEntry).
	if string(trailer[:6]) != "crc32:" || trailer[TrailerLen-1] != '\n' {
		return nil, fmt.Errorf("malformed CRC trailer %q", trailer)
	}
	var want uint32
	for _, c := range trailer[6 : 6+8] {
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		default:
			return nil, fmt.Errorf("malformed CRC trailer %q", trailer)
		}
		want = want<<4 | d
	}
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("CRC mismatch (got %08x, want %08x)", got, want)
	}
	return bytes.TrimSuffix(body, []byte("\n")), nil
}
