// Package kvapi is the wire protocol of the Push/Pull KV service: the
// message types clients and servers exchange, a compact binary framing
// (4-byte big-endian length prefix, varint-encoded body), the JSON
// mirror used by the HTTP fallback, a blocking client, and the
// closed-loop load-generator engine cmd/pushpull-load drives.
//
// The protocol is deliberately small. A transaction is either
//
//   - one-shot: a single MsgTxn request carrying the whole operation
//     list, executed atomically server-side (the substrate retries
//     conflicts under its chaos.RetryPolicy before answering); or
//   - interactive: MsgBegin opens a server-side session, MsgGet/MsgPut
//     execute operations inside the live transaction one round trip at
//     a time, and MsgCommit/MsgAbort close it. On a substrate-level
//     conflict the server replays the session's journal against fresh
//     state; reads that no longer reproduce their answered values
//     abort the session (the client already saw stale data).
//
// Every response carries the outcome (OK / aborted / busy / error),
// the server-side retry count, and — on admission-control rejection —
// a Retry-After hint in milliseconds.
package kvapi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"pushpull/internal/ops"
)

// MsgType discriminates request messages.
type MsgType byte

// Request message types.
const (
	// MsgTxn executes a whole operation list as one atomic transaction.
	MsgTxn MsgType = iota
	// MsgBegin opens an interactive transaction on this connection.
	MsgBegin
	// MsgGet reads one key inside the open transaction.
	MsgGet
	// MsgPut writes one key inside the open transaction.
	MsgPut
	// MsgCommit commits the open transaction.
	MsgCommit
	// MsgAbort rolls the open transaction back.
	MsgAbort
	// MsgPing is a liveness probe; it never touches a substrate.
	MsgPing
	// MsgReplPoll asks a primary for durable WAL bytes of one
	// replication stream from a (segment, offset) cursor — the follower
	// catch-up RPC. Key/Val are unused; Stream/Seg/Off/Max name the
	// cursor and the byte budget.
	MsgReplPoll
)

func (t MsgType) String() string {
	switch t {
	case MsgTxn:
		return "txn"
	case MsgBegin:
		return "begin"
	case MsgGet:
		return "get"
	case MsgPut:
		return "put"
	case MsgCommit:
		return "commit"
	case MsgAbort:
		return "abort"
	case MsgPing:
		return "ping"
	case MsgReplPoll:
		return "replpoll"
	default:
		return fmt.Sprintf("msg(%d)", byte(t))
	}
}

// OpKind discriminates operations inside a MsgTxn: it is ops.Code,
// whose value is the wire byte. Kinds ≥ OpAdd are the typed operations
// of internal/ops; they execute against the typed "ops" keyspace,
// disjoint from the blind GET/PUT map — get k and cget k are different
// cells.
type OpKind = ops.Code

// Operation kinds.
const (
	OpGet = ops.Get
	OpPut = ops.Put
	// OpAdd: add Val to counter Key (INCR is Val=1); returns 0.
	OpAdd = ops.Add
	// OpCGet: read counter Key.
	OpCGet = ops.CGet
	// OpWd: withdraw Val from counter Key; aborts (after retries) while
	// the balance is below Val — the partial-operation boundary.
	OpWd = ops.Wd
	// OpCAS: compare-and-set counter Key from Val (expect) to Arg
	// (new); returns the old value. The non-commuting control.
	OpCAS = ops.CAS
	// OpSAdd: blind-insert member Val into set Key; returns 0.
	OpSAdd = ops.SAdd
	// OpSRem: blind-remove member Val from set Key; returns 0.
	OpSRem = ops.SRem
	// OpSCont: membership of Val in set Key (1/0).
	OpSCont = ops.SCont
	// OpQPush: enqueue Val onto queue Key; returns 0.
	OpQPush = ops.QPush
	// OpQPop: dequeue the front of queue Key; aborts while empty.
	OpQPop = ops.QPop
)

// opVals is each kind's payload operand count after the key: Val, then
// Arg. Only OpCAS carries two (Val=expect, Arg=new).
func opVals(k OpKind) int {
	switch k {
	case OpGet, OpCGet, OpQPop:
		return 0
	case OpCAS:
		return 2
	default:
		return 1
	}
}

// Op is one KV operation (Val: put value, delta, member, expect, ...;
// Arg: OpCAS's new value) — the engine executes the decoded value as is.
type Op = ops.Op

// Request is one client message.
type Request struct {
	Type MsgType
	Key  uint64 // MsgGet/MsgPut
	Val  int64  // MsgPut
	Ops  []Op   // MsgTxn
	// Session and Seq tag a MsgTxn with the client's exactly-once
	// identity: Session is the client-assigned retry domain (0 = no
	// session, plain at-most-once semantics) and Seq the request's
	// sequence number within it, advanced only after the previous
	// request's outcome settled. A server holding (Session, Seq) in its
	// dedup table answers with the original results and DedupHit set
	// instead of re-executing.
	Session uint64
	Seq     uint64
	// ReadOnly marks a MsgTxn or MsgBegin as a read-only snapshot
	// transaction: the server serves it from a pinned MVCC snapshot —
	// no admission gate, no locks, no validation, no retries — and
	// certifies the result set against the committed history. A
	// ReadOnly transaction carrying a Put is a protocol error.
	ReadOnly bool
	// MsgReplPoll: stream index, cursor, and byte budget.
	Stream int
	Seg    int
	Off    int
	Max    int
}

// Status is the application-level outcome of a request.
type Status byte

// Response statuses.
const (
	// StatusOK: the request succeeded (for MsgCommit: the transaction
	// is committed — and, when the server is durable, flushed).
	StatusOK Status = iota
	// StatusAborted: the transaction gave up — retry budget exhausted,
	// interactive replay diverged, or an explicit substrate abort. The
	// client may start a fresh transaction.
	StatusAborted
	// StatusBusy: admission control rejected the request; RetryAfterMs
	// hints when to come back.
	StatusBusy
	// StatusError: protocol misuse or an internal failure; Msg explains.
	StatusError
	// StatusRedirect: this node cannot serve the request in its current
	// role (a follower refusing writes); Redirect names the primary to
	// retry against.
	StatusRedirect
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusAborted:
		return "aborted"
	case StatusBusy:
		return "busy"
	case StatusError:
		return "error"
	case StatusRedirect:
		return "redirect"
	default:
		return fmt.Sprintf("status(%d)", byte(s))
	}
}

// Result is one operation's answer: the value read (gets) or the value
// overwritten (puts), with Found reporting presence.
type Result struct {
	Val   int64
	Found bool
}

// Response is one server message.
type Response struct {
	Status Status
	// Results answers a MsgTxn op-for-op, or a single MsgGet/MsgPut.
	Results []Result
	// Retries is how many substrate-level retries the transaction
	// consumed before this outcome (0 = first attempt).
	Retries uint32
	// RetryAfterMs, on StatusBusy, hints when to retry (queue-depth
	// scaled).
	RetryAfterMs uint32
	// Msg carries the abort/error cause, when there is one.
	Msg string
	// Data answers a MsgReplPoll: raw durable stream bytes starting at
	// the requested cursor.
	Data []byte
	// Epoch is the serving epoch stamped on replication payloads (and
	// reported by /stats-style probes).
	Epoch uint64
	// More reports that durable bytes remain past this Data in the
	// stream; Next reports the requested segment is finished and the
	// cursor should advance to (Seg+1, 0).
	More bool
	Next bool
	// DedupHit reports the response was answered from the server's
	// exactly-once session table — the original commit's results, not a
	// fresh execution.
	DedupHit bool
	// Appends is the primary's lifetime appended-record count for the
	// polled stream — the follower's lag reference.
	Appends uint64
	// Redirect, on StatusRedirect, names the primary's address.
	Redirect string
	// Snapshot is the pinned commit watermark a read-only transaction
	// was served and certified at (0 for read-write transactions; on
	// multi-shard cuts, the coordinator shard's watermark).
	Snapshot uint64
	// CommuteHits counts this transaction's typed operations that
	// JOINED other live holders of their cell's abstract lock under a
	// shared commute class — operations that would have conflicted on
	// the blind GET/PUT path.
	CommuteHits uint64
}

// MaxFrame bounds one message's body; anything larger is a protocol
// error, not a bigger allocation.
const MaxFrame = 1 << 20

// ErrFrameTooLarge reports a length prefix beyond MaxFrame.
var ErrFrameTooLarge = errors.New("kvapi: frame exceeds MaxFrame")

// errShort reports a truncated or malformed body. Decoding is total:
// corrupt input yields this error, never a panic.
var errShort = errors.New("kvapi: truncated or malformed message body")

// reqFlags packs the request flag byte (bit 0: ReadOnly).
func reqFlags(r Request) byte {
	var f byte
	if r.ReadOnly {
		f |= 1
	}
	return f
}

// takeReqFlags consumes the trailing flag byte. Unknown flag bits are
// a protocol error, not silently dropped semantics — a mixed-version
// peer fails loudly instead of quietly losing read-only routing.
func takeReqFlags(r *Request, b []byte) ([]byte, error) {
	if len(b) == 0 {
		return b, errShort
	}
	f := b[0]
	if f&^byte(1) != 0 {
		return b, fmt.Errorf("kvapi: unknown request flags %#x", f)
	}
	r.ReadOnly = f&1 != 0
	return b[1:], nil
}

// AppendRequest encodes r's body (no frame header) onto b.
func AppendRequest(b []byte, r Request) []byte {
	b = append(b, byte(r.Type))
	switch r.Type {
	case MsgTxn:
		b = binary.AppendUvarint(b, uint64(len(r.Ops)))
		for _, op := range r.Ops {
			b = append(b, byte(op.Kind))
			b = binary.AppendUvarint(b, op.Key)
			if n := opVals(op.Kind); n >= 1 {
				b = binary.AppendVarint(b, op.Val)
				if n == 2 {
					b = binary.AppendVarint(b, op.Arg)
				}
			}
		}
		b = binary.AppendUvarint(b, r.Session)
		b = binary.AppendUvarint(b, r.Seq)
		b = append(b, reqFlags(r))
	case MsgBegin:
		b = append(b, reqFlags(r))
	case MsgGet:
		b = binary.AppendUvarint(b, r.Key)
	case MsgPut:
		b = binary.AppendUvarint(b, r.Key)
		b = binary.AppendVarint(b, r.Val)
	case MsgReplPoll:
		b = binary.AppendUvarint(b, uint64(r.Stream))
		b = binary.AppendUvarint(b, uint64(r.Seg))
		b = binary.AppendUvarint(b, uint64(r.Off))
		b = binary.AppendUvarint(b, uint64(r.Max))
	}
	return b
}

// DecodeRequest decodes one request body. Total: bad input errors out.
func DecodeRequest(b []byte) (Request, error) {
	if len(b) == 0 {
		return Request{}, errShort
	}
	r := Request{Type: MsgType(b[0])}
	b = b[1:]
	var err error
	switch r.Type {
	case MsgTxn:
		var n uint64
		if n, b, err = takeUvarint(b); err != nil {
			return r, err
		}
		if n > MaxFrame/2 { // each op is ≥2 bytes; reject absurd counts
			return r, errShort
		}
		r.Ops = make([]Op, 0, n)
		for i := uint64(0); i < n; i++ {
			if len(b) == 0 {
				return r, errShort
			}
			op := Op{Kind: OpKind(b[0])}
			b = b[1:]
			if op.Kind >= ops.NumCodes {
				return r, fmt.Errorf("kvapi: unknown op kind %d", op.Kind)
			}
			if op.Key, b, err = takeKey(b); err != nil {
				return r, err
			}
			if n := opVals(op.Kind); n >= 1 {
				if op.Val, b, err = takeVarint(b); err != nil {
					return r, err
				}
				if n == 2 {
					if op.Arg, b, err = takeVarint(b); err != nil {
						return r, err
					}
				}
			}
			r.Ops = append(r.Ops, op)
		}
		if r.Session, b, err = takeUvarint(b); err != nil {
			return r, err
		}
		if r.Seq, b, err = takeUvarint(b); err != nil {
			return r, err
		}
		if b, err = takeReqFlags(&r, b); err != nil {
			return r, err
		}
	case MsgBegin:
		if b, err = takeReqFlags(&r, b); err != nil {
			return r, err
		}
	case MsgGet:
		if r.Key, b, err = takeKey(b); err != nil {
			return r, err
		}
	case MsgPut:
		if r.Key, b, err = takeKey(b); err != nil {
			return r, err
		}
		if r.Val, b, err = takeVarint(b); err != nil {
			return r, err
		}
	case MsgReplPoll:
		var u uint64
		for _, dst := range []*int{&r.Stream, &r.Seg, &r.Off, &r.Max} {
			if u, b, err = takeUvarint(b); err != nil {
				return r, err
			}
			// Offsets address whole log streams (the coordinator log is
			// one growing segment), so the bound is sanity, not MaxFrame.
			if u > 1<<40 {
				return r, errShort
			}
			*dst = int(u)
		}
	case MsgCommit, MsgAbort, MsgPing:
		// no payload
	default:
		return r, fmt.Errorf("kvapi: unknown message type %d", byte(r.Type))
	}
	if len(b) != 0 {
		return r, errShort
	}
	return r, nil
}

// AppendResponse encodes r's body (no frame header) onto b.
func AppendResponse(b []byte, r Response) []byte {
	b = append(b, byte(r.Status))
	b = binary.AppendUvarint(b, uint64(len(r.Results)))
	for _, res := range r.Results {
		found := byte(0)
		if res.Found {
			found = 1
		}
		b = append(b, found)
		b = binary.AppendVarint(b, res.Val)
	}
	b = binary.AppendUvarint(b, uint64(r.Retries))
	b = binary.AppendUvarint(b, uint64(r.RetryAfterMs))
	b = binary.AppendUvarint(b, uint64(len(r.Msg)))
	b = append(b, r.Msg...)
	b = binary.AppendUvarint(b, uint64(len(r.Data)))
	b = append(b, r.Data...)
	b = binary.AppendUvarint(b, r.Epoch)
	var flags byte
	if r.More {
		flags |= 1
	}
	if r.Next {
		flags |= 2
	}
	if r.DedupHit {
		flags |= 4
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, r.Appends)
	b = binary.AppendUvarint(b, uint64(len(r.Redirect)))
	b = append(b, r.Redirect...)
	b = binary.AppendUvarint(b, r.Snapshot)
	b = binary.AppendUvarint(b, r.CommuteHits)
	return b
}

// DecodeResponse decodes one response body. Total: bad input errors out.
func DecodeResponse(b []byte) (Response, error) {
	if len(b) == 0 {
		return Response{}, errShort
	}
	r := Response{Status: Status(b[0])}
	b = b[1:]
	n, b, err := takeUvarint(b)
	if err != nil {
		return r, err
	}
	if n > MaxFrame/2 {
		return r, errShort
	}
	r.Results = make([]Result, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(b) == 0 {
			return r, errShort
		}
		res := Result{Found: b[0] != 0}
		b = b[1:]
		if res.Val, b, err = takeVarint(b); err != nil {
			return r, err
		}
		r.Results = append(r.Results, res)
	}
	var u uint64
	if u, b, err = takeUvarint(b); err != nil {
		return r, err
	}
	r.Retries = uint32(u)
	if u, b, err = takeUvarint(b); err != nil {
		return r, err
	}
	r.RetryAfterMs = uint32(u)
	if u, b, err = takeUvarint(b); err != nil {
		return r, err
	}
	if uint64(len(b)) < u {
		return r, errShort
	}
	r.Msg = string(b[:u])
	b = b[u:]
	if u, b, err = takeUvarint(b); err != nil {
		return r, err
	}
	if u > MaxFrame || uint64(len(b)) < u {
		return r, errShort
	}
	if u > 0 {
		r.Data = append([]byte(nil), b[:u]...)
	}
	b = b[u:]
	if r.Epoch, b, err = takeUvarint(b); err != nil {
		return r, err
	}
	if len(b) == 0 {
		return r, errShort
	}
	r.More, r.Next, r.DedupHit = b[0]&1 != 0, b[0]&2 != 0, b[0]&4 != 0
	b = b[1:]
	if r.Appends, b, err = takeUvarint(b); err != nil {
		return r, err
	}
	if u, b, err = takeUvarint(b); err != nil {
		return r, err
	}
	if uint64(len(b)) < u {
		return r, errShort
	}
	r.Redirect = string(b[:u])
	b = b[u:]
	if r.Snapshot, b, err = takeUvarint(b); err != nil {
		return r, err
	}
	if r.CommuteHits, b, err = takeUvarint(b); err != nil {
		return r, err
	}
	if len(b) != 0 {
		return r, errShort
	}
	return r, nil
}

// WriteFrame writes one length-prefixed body.
func WriteFrame(w io.Writer, body []byte) error {
	if len(body) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one length-prefixed body.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// WriteRequest frames and writes one request.
func WriteRequest(w io.Writer, r Request) error {
	return WriteFrame(w, AppendRequest(nil, r))
}

// ReadRequest reads and decodes one request.
func ReadRequest(r io.Reader) (Request, error) {
	body, err := ReadFrame(r)
	if err != nil {
		return Request{}, err
	}
	return DecodeRequest(body)
}

// WriteResponse frames and writes one response.
func WriteResponse(w io.Writer, r Response) error {
	return WriteFrame(w, AppendResponse(nil, r))
}

// ReadResponse reads and decodes one response.
func ReadResponse(r io.Reader) (Response, error) {
	body, err := ReadFrame(r)
	if err != nil {
		return Response{}, err
	}
	return DecodeResponse(body)
}

// checkKey refuses a key at or above 1<<63: the top bit is the
// typed-counter namespace of the snapshot fold (ops.KeyBit), so a
// client key there would alias a counter cell. The binary decoder and
// the JSON mirror share this one check.
func checkKey(k uint64) error {
	if k&ops.KeyBit != 0 {
		return fmt.Errorf("kvapi: key %d out of range (keys stop at 2^63-1)", k)
	}
	return nil
}

// takeKey consumes one key from b and range-checks it.
func takeKey(b []byte) (uint64, []byte, error) {
	k, b, err := takeUvarint(b)
	if err == nil {
		err = checkKey(k)
	}
	return k, b, err
}

// takeUvarint consumes one uvarint from b.
func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, errShort
	}
	return v, b[n:], nil
}

// takeVarint consumes one zigzag varint from b.
func takeVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, b, errShort
	}
	return v, b[n:], nil
}
