package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// The frame codec every durable log in the repository shares: the
// shard WAL's segments and the coordinator journal. A frame is
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//
// (little-endian). The framing is what makes decoding total: any byte
// stream is a longest valid frame prefix plus a truncation point — a
// torn tail, a flipped bit, or garbage all land in "truncate here",
// never in a panic.

// frameLen is the per-frame overhead.
const frameLen = 8

// MaxRecordLen bounds a single frame's payload; longer frames are
// treated as corruption (an unchecked u32 length would otherwise let a
// flipped bit demand gigabytes).
const MaxRecordLen = 1 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends payload, framed and checksummed, to b.
func AppendFrame(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

// Truncation-reason classes. Crash recovery treats every truncation the
// same way (keep the prefix, drop the tail), but a live tailer cannot:
// an incomplete frame at the end of the open segment will grow into a
// valid record on the next sync, while a checksum mismatch or garbage
// payload never will. WalkFrames wraps each reason so callers can
// errors.Is-dispatch between "wait and re-poll" and "stop, the stream
// is damaged".
var (
	// ErrTornTail marks an incomplete frame at the truncation point: the
	// bytes seen so far are a valid proper prefix of a record that more
	// data could complete. At the end of an open segment this means
	// wait/retry; mid-stream it means a torn write (crash artifact).
	ErrTornTail = errors.New("wal: torn tail")
	// ErrCorrupt marks a frame that no amount of further data can
	// repair: an absurd declared length, a checksum mismatch, or a
	// payload that fails structural decode. A tailer must treat this as
	// a hard error.
	ErrCorrupt = errors.New("wal: corrupt record")
)

// WalkFrames hands every checksum-verified payload of body to fn, in
// order, and returns the bytes consumed by whole accepted frames. The
// reason is nil when body decoded exactly; otherwise it wraps
// ErrTornTail (an incomplete frame more bytes could complete) or
// ErrCorrupt (an absurd length, a checksum mismatch, or fn refusing the
// payload). WalkFrames never fails: arbitrary input is a valid prefix
// plus a truncation point.
func WalkFrames(body []byte, fn func(payload []byte) error) (consumed int, reason error) {
	off := 0
	for {
		rest := body[off:]
		if len(rest) == 0 {
			return off, nil
		}
		if len(rest) < frameLen {
			return off, fmt.Errorf("%w: torn frame header (%d bytes) at offset %d", ErrTornTail, len(rest), off)
		}
		plen := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if plen > MaxRecordLen {
			return off, fmt.Errorf("%w: frame length %d exceeds limit at offset %d", ErrCorrupt, plen, off)
		}
		if uint64(frameLen)+uint64(plen) > uint64(len(rest)) {
			return off, fmt.Errorf("%w: torn record (want %d payload bytes, have %d) at offset %d",
				ErrTornTail, plen, len(rest)-frameLen, off)
		}
		payload := rest[frameLen : frameLen+int(plen)]
		if crc32.Checksum(payload, crcTable) != sum {
			return off, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		if err := fn(payload); err != nil {
			return off, fmt.Errorf("%w: bad payload at offset %d: %v", ErrCorrupt, off, err)
		}
		off += frameLen + int(plen)
	}
}

// Decoder walks a payload field by field. Failure is sticky: the first
// overrun marks the decoder bad, every later read returns zero, and
// End reports it — so a payload decodes as a straight-line sequence of
// reads with one check at the end.
type Decoder struct {
	b   []byte
	bad bool
}

// NewDecoder starts a decoder over p.
func NewDecoder(p []byte) *Decoder { return &Decoder{b: p} }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.bad {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.bad || len(d.b) == 0 {
		d.bad = true
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if d.bad || n > uint64(len(d.b)) {
		d.bad = true
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// Count reads a declared element count. Every element takes at least
// one byte, so a count beyond the remaining payload is an overrun — a
// corrupt count can never demand an allocation larger than the payload.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if n > uint64(len(d.b)) {
		d.bad = true
		return 0
	}
	return int(n)
}

// End reports an overrun, or payload bytes left unread.
func (d *Decoder) End() error {
	if d.bad {
		return errors.New("truncated payload")
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%d trailing payload bytes", len(d.b))
	}
	return nil
}

// AppendString appends a length-prefixed string (Decoder.Str's input).
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendResults appends a session record's stored answers
// (Decoder.Results' input).
func AppendResults(b []byte, rs []SessResult) []byte {
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for _, r := range rs {
		b = binary.AppendVarint(b, r.Val)
		if r.Found {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// Results reads a session record's stored answers (nil when there are
// none).
func (d *Decoder) Results() []SessResult {
	var rs []SessResult
	for i, n := 0, d.Count(); i < n && !d.bad; i++ {
		r := SessResult{Val: d.Varint()}
		switch d.Byte() {
		case 0:
		case 1:
			r.Found = true
		default:
			d.bad = true
		}
		rs = append(rs, r)
	}
	return rs
}
