package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pushpull/internal/spec"
)

// The record format. Every record is one frame (frame.go), and every
// segment opens with an 8-byte header
//
//	"PPWAL" | u8 version | u16 segment index
//
// The payload's first byte is the record type; the rest is the type's
// fields in varint/length-prefixed encoding.

// Type discriminates WAL records. The three global-log transitions of
// the Push/Pull model (PUSH, UNPUSH, CMT) plus the whole-transaction
// abort mark substrates emit on rollback.
type Type uint8

// Record types.
const (
	// TPush logs an operation entering the global log uncommitted.
	TPush Type = 1
	// TUnpush logs an operation leaving the global log (rewind).
	TUnpush Type = 2
	// TCommit logs a transaction's entries flipping to committed, with
	// its commit stamp — the serialization witness recovery replays in.
	TCommit Type = 3
	// TAbort logs a completed whole-transaction rollback (its UNPUSHes
	// precede it individually).
	TAbort Type = 4
	// TSession logs a client session's request outcome for exactly-once
	// retries: session id, request sequence number, the results the
	// client was (about to be) told, and the name of the transaction that
	// carried the request. The record is appended before the commit point
	// of that transaction, so the durable-prefix property gives the
	// invariant recovery needs: commit durable implies session record
	// durable. A session record whose named transaction never committed
	// is ignored on recovery (the request never took effect, so a retry
	// may re-execute). A record with an empty Name is a checkpoint entry
	// re-logged at boot and is unconditionally valid.
	TSession Type = 5
)

func (t Type) String() string {
	switch t {
	case TPush:
		return "PUSH"
	case TUnpush:
		return "UNPUSH"
	case TCommit:
		return "CMT"
	case TAbort:
		return "ABORT"
	case TSession:
		return "SESSION"
	default:
		return fmt.Sprintf("type%d", uint8(t))
	}
}

// Record is one WAL entry.
type Record struct {
	Type Type
	// Tx identifies the transaction (the machine thread id) in every
	// record type.
	Tx uint64
	// Name is the transaction name (TPush and TCommit carry it so a
	// recovered prefix reports human-readable identities).
	Name string
	// Op is the pushed operation (TPush only).
	Op spec.Op
	// OpID identifies the retracted operation (TUnpush only).
	OpID uint64
	// Stamp is the commit serial number (TCommit only).
	Stamp uint64
	// Session and SeqNo identify the client request (TSession only).
	Session uint64
	SeqNo   uint64
	// Results are the per-op answers the request's commit produced
	// (TSession only) — replayed verbatim to a retry.
	Results []SessResult
}

// SessResult is one stored per-op answer inside a TSession record.
type SessResult struct {
	Val   int64
	Found bool
}

func (r Record) String() string {
	switch r.Type {
	case TPush:
		return fmt.Sprintf("PUSH tx=%d %q %v", r.Tx, r.Name, r.Op)
	case TUnpush:
		return fmt.Sprintf("UNPUSH tx=%d op#%d", r.Tx, r.OpID)
	case TCommit:
		return fmt.Sprintf("CMT tx=%d %q stamp=%d", r.Tx, r.Name, r.Stamp)
	case TAbort:
		return fmt.Sprintf("ABORT tx=%d %q", r.Tx, r.Name)
	case TSession:
		return fmt.Sprintf("SESSION sess=%d seq=%d %q (%d results)",
			r.Session, r.SeqNo, r.Name, len(r.Results))
	default:
		return fmt.Sprintf("%s tx=%d", r.Type, r.Tx)
	}
}

// Segment header constants.
const (
	segMagic     = "PPWAL"
	segVersion   = 1
	SegHeaderLen = len(segMagic) + 1 + 2 // magic + version + u16 index
)

// SegmentHeader renders the header for segment index.
func SegmentHeader(index int) []byte {
	h := make([]byte, 0, SegHeaderLen)
	h = append(h, segMagic...)
	h = append(h, segVersion)
	h = binary.LittleEndian.AppendUint16(h, uint16(index))
	return h
}

// CheckSegmentHeader validates a segment's opening bytes and returns
// the declared index.
func CheckSegmentHeader(data []byte) (index int, err error) {
	if len(data) < SegHeaderLen {
		return 0, errors.New("wal: short segment header")
	}
	if string(data[:len(segMagic)]) != segMagic {
		return 0, errors.New("wal: bad segment magic")
	}
	if data[len(segMagic)] != segVersion {
		return 0, fmt.Errorf("wal: unsupported segment version %d", data[len(segMagic)])
	}
	return int(binary.LittleEndian.Uint16(data[len(segMagic)+1:])), nil
}

// Encode appends the record's framed bytes to b.
func Encode(b []byte, r Record) []byte {
	p := make([]byte, 0, 64)
	p = append(p, byte(r.Type))
	p = binary.AppendUvarint(p, r.Tx)
	switch r.Type {
	case TPush:
		p = AppendString(p, r.Name)
		p = binary.AppendUvarint(p, r.Op.ID)
		p = binary.AppendUvarint(p, uint64(r.Op.Seq))
		p = AppendString(p, r.Op.Obj)
		p = AppendString(p, r.Op.Method)
		p = binary.AppendUvarint(p, uint64(len(r.Op.Args)))
		for _, a := range r.Op.Args {
			p = binary.AppendVarint(p, a)
		}
		p = binary.AppendVarint(p, r.Op.Ret)
	case TUnpush:
		p = binary.AppendUvarint(p, r.OpID)
	case TCommit:
		p = AppendString(p, r.Name)
		p = binary.AppendUvarint(p, r.Stamp)
	case TAbort:
		p = AppendString(p, r.Name)
	case TSession:
		p = binary.AppendUvarint(p, r.Session)
		p = binary.AppendUvarint(p, r.SeqNo)
		p = AppendString(p, r.Name)
		p = AppendResults(p, r.Results)
	}
	return AppendFrame(b, p)
}

// decodePayload decodes one checksum-verified payload.
func decodePayload(p []byte) (Record, error) {
	if len(p) == 0 {
		return Record{}, errors.New("empty payload")
	}
	r := Record{Type: Type(p[0])}
	d := NewDecoder(p[1:])
	r.Tx = d.Uvarint()
	switch r.Type {
	case TPush:
		r.Name = d.Str()
		r.Op.ID = d.Uvarint()
		r.Op.Seq = int(d.Uvarint())
		r.Op.Obj = d.Str()
		r.Op.Method = d.Str()
		if n := d.Count(); n > 0 {
			r.Op.Args = make([]int64, n)
			for i := range r.Op.Args {
				r.Op.Args[i] = d.Varint()
			}
		}
		r.Op.Ret = d.Varint()
		r.Op.Tx = r.Tx
	case TUnpush:
		r.OpID = d.Uvarint()
	case TCommit:
		r.Name = d.Str()
		r.Stamp = d.Uvarint()
	case TAbort:
		r.Name = d.Str()
	case TSession:
		r.Session = d.Uvarint()
		r.SeqNo = d.Uvarint()
		r.Name = d.Str()
		r.Results = d.Results()
	default:
		return Record{}, fmt.Errorf("unknown record type %d", p[0])
	}
	if err := d.End(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// DecodeAll decodes the longest valid record prefix of a segment body
// (the bytes after the segment header). It returns the records, the
// number of body bytes consumed, and a non-nil reason when a torn or
// corrupt tail was truncated (nil means the body decoded exactly); the
// reason classes are WalkFrames'.
func DecodeAll(body []byte) (recs []Record, consumed int, reason error) {
	consumed, reason = WalkFrames(body, func(p []byte) error {
		rec, err := decodePayload(p)
		if err == nil {
			recs = append(recs, rec)
		}
		return err
	})
	return recs, consumed, reason
}
