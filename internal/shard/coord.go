package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"pushpull/internal/ops"
	"pushpull/internal/recovery"
	"pushpull/internal/wal"
)

// The coordinator log is the cross-shard commit journal: presumed
// abort with roll-forward by evidence. A cross-shard transaction is
// globally committed iff its CCommit record — global serial number,
// name, and every participant branch's write-set — is durable here.
// The record is forced before any branch is allowed to CMT, so at
// recovery:
//
//   - CCommit durable, branch CMT missing on some shard → the branch is
//     redone from the journaled write-set (roll forward);
//   - CCommit absent → no branch can have committed (branches only CMT
//     after the forced decision), so per-shard recovery has already
//     discarded the prepared PUSHes — a consistent presumed abort.
//
// Either way zero transactions remain in doubt after restart. CEnd is
// a lazy completion marker (never forced), purely informational: it is
// appended when every branch acked its CMT in memory, but a later
// forced append can make it durable even though a shard WAL died under
// one of those CMTs — so recovery never treats CEnd as proof of branch
// durability and always runs the branch-presence probe.

// ErrCoordCrashed reports an append against a coordinator log whose
// simulated process has died — the shared log's ErrCrashed.
var ErrCoordCrashed = wal.ErrCrashed

// ErrCoordFenced reports an append against a coordinator log that has
// learned of a higher serving epoch: a replica (or the new primary)
// refused this node's stream, so this node is a zombie and must not
// decide any further commits. The client never gets an ack for the
// refused decision, so no durable-but-lost window opens.
var ErrCoordFenced = errors.New("shard: coordinator log fenced by a higher epoch")

// KV is one journaled write: a logical operation, not a final value.
// Method says how Val folds into the key's cell — ops.WPut is the
// plain register overwrite, ops.WAdd/WSAdd/WSRem/WQPush are the typed
// effects (a withdrawal journals as WAdd of a negative delta, a
// resolved CAS as WPut of the installed value), so a roll-forward
// replays the operation instead of racing other writers to a final
// value.
type KV struct {
	Key    uint64
	Val    int64
	Method ops.WireMethod
}

// BranchRec is one participant's journaled branch: its shard and the
// write-set to roll forward from.
type BranchRec struct {
	Shard int
	Puts  []KV
}

// CommitRec is one cross-shard commit decision.
type CommitRec struct {
	GSN      uint64
	Name     string
	Branches []BranchRec
	// Ended is set by decode when a CEnd marker followed. Informational
	// only: CEnd does not certify branch durability (see package doc).
	Ended bool
}

// Coordinator log layout: an 8-byte header ("PPCRD", version, two
// reserved bytes), then wal frames (wal.AppendFrame) — the shard WALs'
// codec, so any byte stream decodes to a longest valid prefix plus a
// truncation point. Version 2 added a write-method byte to every
// journaled KV (logical-op write-sets).
const (
	coordMagic   = "PPCRD"
	coordVersion = 2
	coordHdrLen  = 8

	cRecCommit = 1
	cRecEnd    = 2
	// cRecEpoch brands the log with its serving generation. Appended
	// (forced) at engine boot and at every promotion, so the epoch is
	// durable, ships to every replica with the stream, and survives
	// restart — the fencing token's source of truth.
	cRecEpoch = 3
	// cRecSession carries one exactly-once dedup entry. A live entry is
	// appended (unforced) immediately before the CCommit of the
	// transaction it names, so the forced decision makes both durable in
	// order: decision durable implies dedup entry durable. An entry with
	// an empty name is a boot-time checkpoint of a table recovered from
	// the previous timeline and is unconditionally valid; a named entry
	// counts only if its CCommit made the durable prefix.
	cRecSession = 4
	// cRecLease brands the log with the lease epoch its holder was
	// granted — the supervisor's "at most one acking primary per lease
	// epoch" token, durable and shipped next to the serving-epoch fence.
	cRecLease = 5
	// cRecBatch journals one sealed sequencer epoch: every commit
	// decision of the batch, GSN-ascending, forced as ONE durable
	// record — the deterministic ordered-commit path's commit point for
	// the whole epoch. Recovery folds the contained decisions exactly
	// like individual CCommit records, so roll-forward, presumed abort,
	// and the merged-order certificate are unchanged: batch durable and
	// a branch CMT missing → redo; batch absent → no branch of any of
	// its transactions CMTed (executors release only after the force) →
	// consistent presumed abort. Zero in doubt either way.
	cRecBatch = 6
)

func coordHeader() []byte {
	return append([]byte(coordMagic), coordVersion, 0, 0)
}

// CoordLog is the coordinator journal: one wal.Segment (durable
// watermark, optional backing file, ship seam, Kill/Image/DurableAt/
// Sync/Close) plus the decision records and the epoch fence.
type CoordLog struct {
	*wal.Segment
	// fenced/epoch are atomics so Fence can be called from inside the
	// ship callback — the replica that refuses a stale batch does so
	// synchronously inside this log's own barrier.
	fenced atomic.Bool
	epoch  atomic.Uint64
}

// OpenCoordLog creates a coordinator log whose header is durable; an
// empty path keeps it in memory (tests, simulated crashes). ship, when
// non-nil, receives every newly durable byte range — the header first,
// so a replica attached at boot sees the log from byte zero (see
// wal.OpenSegment).
func OpenCoordLog(path string, ship func(off int, data []byte)) (*CoordLog, error) {
	seg, err := wal.OpenSegment(path, coordHeader(), ship)
	if err != nil {
		return nil, err
	}
	if err := seg.Sync(); err != nil {
		seg.Close()
		return nil, err
	}
	return &CoordLog{Segment: seg}, nil
}

// encodeCommitBody appends one commit decision's body (GSN, name,
// branches) — shared by the standalone CCommit record and each entry
// of a batch record.
func encodeCommitBody(p []byte, r CommitRec) []byte {
	p = binary.AppendUvarint(p, r.GSN)
	p = wal.AppendString(p, r.Name)
	p = binary.AppendUvarint(p, uint64(len(r.Branches)))
	for _, b := range r.Branches {
		p = binary.AppendUvarint(p, uint64(b.Shard))
		p = binary.AppendUvarint(p, uint64(len(b.Puts)))
		for _, kv := range b.Puts {
			p = binary.AppendUvarint(p, kv.Key)
			p = binary.AppendVarint(p, kv.Val)
			p = append(p, byte(kv.Method))
		}
	}
	return p
}

func encodeCommitRec(r CommitRec) []byte {
	return encodeCommitBody(append(make([]byte, 0, 64), cRecCommit), r)
}

// BatchRec is one sealed sequencer epoch: its number and the commit
// decisions it carries in GSN order.
type BatchRec struct {
	Epoch   uint64
	Commits []CommitRec
}

func encodeBatchRec(r BatchRec) []byte {
	p := make([]byte, 0, 16+64*len(r.Commits))
	p = append(p, cRecBatch)
	p = binary.AppendUvarint(p, r.Epoch)
	p = binary.AppendUvarint(p, uint64(len(r.Commits)))
	for _, c := range r.Commits {
		p = encodeCommitBody(p, c)
	}
	return p
}

func (l *CoordLog) append(payload []byte, force bool) error {
	if l.fenced.Load() && !l.Crashed() {
		return ErrCoordFenced
	}
	return l.Append(payload, force)
}

// AppendCommit journals one commit decision and forces it durable —
// the cross-shard commit point. No branch may CMT before this returns.
func (l *CoordLog) AppendCommit(r CommitRec) error {
	return l.append(encodeCommitRec(r), true)
}

// AppendBatch journals one sealed sequencer epoch and forces it
// durable — the commit point of every transaction in the batch. No
// branch of any contained transaction may CMT before this returns.
func (l *CoordLog) AppendBatch(r BatchRec) error {
	return l.append(encodeBatchRec(r), true)
}

// AppendEnd journals a lazy completion marker (not forced; see the
// package comment for why losing it is harmless).
func (l *CoordLog) AppendEnd(gsn uint64) error {
	return l.append(binary.AppendUvarint([]byte{cRecEnd}, gsn), false)
}

// SessionRec is one exactly-once dedup entry in the coordinator log.
type SessionRec struct {
	Session uint64
	SeqNo   uint64
	// Name is the cross-shard transaction the entry rides with ("" for
	// an unconditional boot checkpoint entry).
	Name    string
	Results []wal.SessResult
}

func encodeSessionRec(r SessionRec) []byte {
	p := make([]byte, 0, 32)
	p = append(p, cRecSession)
	p = binary.AppendUvarint(p, r.Session)
	p = binary.AppendUvarint(p, r.SeqNo)
	p = wal.AppendString(p, r.Name)
	return wal.AppendResults(p, r.Results)
}

// AppendSession journals one dedup entry. Live entries (named) ride
// unforced just before their commit decision; checkpoint entries may be
// forced explicitly by the caller's boot sequence.
func (l *CoordLog) AppendSession(r SessionRec, force bool) error {
	return l.append(encodeSessionRec(r), force)
}

// AppendLease journals the lease epoch granted to this log's holder and
// forces it durable. Lease epochs must not regress.
func (l *CoordLog) AppendLease(epoch uint64) error {
	return l.append(binary.AppendUvarint([]byte{cRecLease}, epoch), true)
}

// AppendEpoch journals the serving epoch and forces it durable. Epochs
// must not regress: a promotion writes predecessor+1.
func (l *CoordLog) AppendEpoch(epoch uint64) error {
	if err := l.append(binary.AppendUvarint([]byte{cRecEpoch}, epoch), true); err != nil {
		return err
	}
	for {
		cur := l.epoch.Load()
		if epoch <= cur || l.epoch.CompareAndSwap(cur, epoch) {
			return nil
		}
	}
}

// Epoch returns the highest epoch appended to this log instance.
func (l *CoordLog) Epoch() uint64 { return l.epoch.Load() }

// Fence marks the log fenced off by a higher epoch: every further
// append fails with ErrCoordFenced, so a zombie coordinator can no
// longer decide commits. A no-op unless epoch exceeds this log's own.
// Safe to call from inside an OnDurable callback.
func (l *CoordLog) Fence(epoch uint64) {
	if epoch > l.epoch.Load() {
		l.fenced.Store(true)
	}
}

// Fenced reports whether the log has been fenced off.
func (l *CoordLog) Fenced() bool { return l.fenced.Load() }

// DecodeCoordLog decodes a coordinator log image into its commit
// records in append (GSN) order, folding CEnd markers into Ended
// flags. Like the WAL decoder it never fails on a torn tail: it
// returns the longest valid prefix plus a non-nil truncation reason
// (nil when the image decoded exactly). An empty image is valid.
func DecodeCoordLog(data []byte) (recs []CommitRec, truncated error) {
	cr := DecodeCoordLogFull(data)
	return cr.Commits, cr.Truncated
}

// CoordRecovery is everything a full decode of a coordinator log image
// yields: the commit decisions, the branded serving and lease epochs,
// and the exactly-once session table (named entries admitted only when
// their commit decision is in the same valid prefix).
type CoordRecovery struct {
	Commits    []CommitRec
	Epoch      uint64
	LeaseEpoch uint64
	Sessions   map[uint64]recovery.SessionEntry
	// Batches counts durable sequencer batch records; SeqEpoch is the
	// highest sealed sequencer epoch in the prefix (0 when the log has
	// none — the mutex-coordinated path, or a pre-sequencer image).
	Batches  int
	SeqEpoch uint64
	// Records counts the whole records of every type in the valid
	// prefix — the replica-side operand of the replication lag gauge,
	// matching the primary's DurableRecords.
	Records   int
	Truncated error
}

// DecodeCoordLogFull decodes a coordinator log image completely. Like
// DecodeCoordLog it never fails on a torn tail: the longest valid
// prefix is returned with Truncated set.
func DecodeCoordLogFull(data []byte) (cr CoordRecovery) {
	if len(data) == 0 {
		return cr
	}
	if len(data) < coordHdrLen || string(data[:len(coordMagic)]) != coordMagic {
		cr.Truncated = errors.New("shard: bad coordinator log header")
		return cr
	}
	if data[len(coordMagic)] != coordVersion {
		cr.Truncated = fmt.Errorf("shard: unsupported coordinator log version %d", data[len(coordMagic)])
		return cr
	}
	ended := make(map[uint64]bool)
	var sessRecs []SessionRec
	_, cr.Truncated = wal.WalkFrames(data[coordHdrLen:], func(p []byte) error {
		if len(p) == 0 {
			return errors.New("empty payload")
		}
		// Decode the whole record before folding any of it: a record
		// the walk refuses must leave no trace.
		d := wal.NewDecoder(p[1:])
		var fold func()
		switch p[0] {
		case cRecEnd:
			gsn := d.Uvarint()
			fold = func() { ended[gsn] = true }
		case cRecEpoch:
			e := d.Uvarint()
			fold = func() { cr.Epoch = max(cr.Epoch, e) }
		case cRecLease:
			e := d.Uvarint()
			fold = func() { cr.LeaseEpoch = max(cr.LeaseEpoch, e) }
		case cRecSession:
			r := SessionRec{Session: d.Uvarint(), SeqNo: d.Uvarint(), Name: d.Str(), Results: d.Results()}
			fold = func() { sessRecs = append(sessRecs, r) }
		case cRecCommit:
			c, err := decodeCommitBody(d)
			if err != nil {
				return err
			}
			fold = func() { cr.Commits = append(cr.Commits, c) }
		case cRecBatch:
			// A batch folds as if its decisions had been appended
			// individually: downstream recovery (roll-forward probe,
			// merged-order certificate, session fold) is unchanged.
			epoch := d.Uvarint()
			var commits []CommitRec
			for i, n := 0, d.Count(); i < n; i++ {
				c, err := decodeCommitBody(d)
				if err != nil {
					return err
				}
				commits = append(commits, c)
			}
			fold = func() {
				cr.Batches++
				cr.SeqEpoch = max(cr.SeqEpoch, epoch)
				cr.Commits = append(cr.Commits, commits...)
			}
		default:
			return fmt.Errorf("unknown record type %d", p[0])
		}
		if err := d.End(); err != nil {
			return err
		}
		fold()
		cr.Records++
		return nil
	})
	for i, c := range cr.Commits {
		if ended[c.GSN] {
			cr.Commits[i].Ended = true
		}
	}
	// Fold the session table: a named entry counts only when its commit
	// decision made the same valid prefix (the record precedes its
	// decision in the stream, so a second pass is needed); checkpoint
	// entries ("" name) are unconditional. Later sequence numbers win.
	if len(sessRecs) > 0 {
		committed := make(map[string]bool, len(cr.Commits))
		for _, c := range cr.Commits {
			committed[c.Name] = true
		}
		cr.Sessions = make(map[uint64]recovery.SessionEntry)
		for _, sr := range sessRecs {
			if sr.Name != "" && !committed[sr.Name] {
				continue
			}
			if cur, ok := cr.Sessions[sr.Session]; ok && cur.SeqNo >= sr.SeqNo {
				continue
			}
			cr.Sessions[sr.Session] = recovery.SessionEntry{SeqNo: sr.SeqNo, Results: sr.Results}
		}
		if len(cr.Sessions) == 0 {
			cr.Sessions = nil
		}
	}
	return cr
}

// decodeCommitBody decodes one commit decision's body — the inverse of
// encodeCommitBody, shared by standalone and batched records.
func decodeCommitBody(d *wal.Decoder) (CommitRec, error) {
	r := CommitRec{GSN: d.Uvarint(), Name: d.Str()}
	for i, nb := 0, d.Count(); i < nb; i++ {
		b := BranchRec{Shard: int(d.Uvarint())}
		for j, np := 0, d.Count(); j < np; j++ {
			kv := KV{Key: d.Uvarint(), Val: d.Varint(), Method: ops.WireMethod(d.Byte())}
			if kv.Method > ops.WQPush {
				return r, fmt.Errorf("unknown write method %d", kv.Method)
			}
			b.Puts = append(b.Puts, kv)
		}
		r.Branches = append(r.Branches, b)
	}
	return r, nil
}
