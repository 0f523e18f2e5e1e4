// Package recovery reconstructs the Push/Pull global log from a
// write-ahead-log prefix and certifies the result by folding it through
// the sequential specification (certify.go); the certified state is
// what a restart seeds from.
//
// The WAL records the three global-log transitions (PUSH, UNPUSH, CMT)
// plus whole-transaction abort marks; everything else in the model —
// APP, UNAPP, PULL — is thread-local and reconstructible, so it is
// deliberately not logged. Recovery is therefore a fold over the
// record stream:
//
//   - PUSH adds an uncommitted operation to its transaction's pending
//     set;
//   - UNPUSH retracts it (the inverse, exactly as in the model);
//   - CMT seals the pending set as a committed transaction carrying
//     its commit stamp — the serialization witness;
//   - ABORT discards the pending set (its UNPUSHes precede it
//     record-by-record, so the mark is normally a no-op confirmation).
//
// A crash leaves pending sets with no CMT: those are the
// pushed-but-uncommitted suffix the model's semantics say never
// happened, and recovery discards them. A torn or corrupt tail is
// truncated at the first bad frame — wal.DecodeAll guarantees the
// bytes before it are a valid record prefix, and the prefix property
// of the log guarantees that prefix is itself a reachable machine
// history. Replay is pure, so recovering twice — or recovering the
// re-encoding of a recovered state — is a fixpoint.
package recovery

import (
	"fmt"

	"pushpull/internal/spec"
	"pushpull/internal/wal"
)

// Txn is one committed transaction as recovered: its operations in
// local (Seq) order and the commit stamp that orders it globally.
type Txn struct {
	Tx    uint64
	Name  string
	Stamp uint64
	Ops   []spec.Op
}

// State is the recovered committed prefix, in commit-stamp order.
type State struct {
	Txns []Txn
}

// Equal reports whether two recovered states are identical — the
// fixpoint relation for idempotence checks.
func (s State) Equal(o State) bool {
	if len(s.Txns) != len(o.Txns) {
		return false
	}
	for i := range s.Txns {
		a, b := s.Txns[i], o.Txns[i]
		if a.Tx != b.Tx || a.Name != b.Name || a.Stamp != b.Stamp || len(a.Ops) != len(b.Ops) {
			return false
		}
		for j := range a.Ops {
			if a.Ops[j].String() != b.Ops[j].String() || a.Ops[j].ID != b.Ops[j].ID {
				return false
			}
		}
	}
	return true
}

// SessionEntry is one recovered exactly-once dedup entry: the highest
// request sequence number a session committed, with the results its
// commit produced. A retry of SeqNo is answered from Results; a lower
// sequence number is stale; a higher one executes fresh.
type SessionEntry struct {
	SeqNo   uint64
	Results []wal.SessResult
}

// Report is the outcome of a replay.
type Report struct {
	State State
	// Certified is State's denotation under the registry
	// RecoverAndCertify checked it against — the state a restart seeds
	// from. Zero unless the report came out of RecoverAndCertify.
	Certified spec.Composite
	// SegmentsRead counts segments whose header validated and whose
	// body contributed records.
	SegmentsRead int
	// Records counts WAL records applied.
	Records int
	// Truncated is non-nil when replay stopped before the end of the
	// durable image (torn tail, checksum mismatch, bad segment header,
	// out-of-order segment index). Truncation is recovery working as
	// designed, not a failure.
	Truncated error
	// Discarded counts pushed-but-uncommitted transactions dropped.
	Discarded int
	// DiscardedOps counts the operations inside them.
	DiscardedOps int
	// AbortMarks counts TAbort records seen.
	AbortMarks int
	// Anomalies are replay oddities that a valid WAL prefix cannot
	// contain (an UNPUSH with no matching PUSH, a regressing commit
	// stamp). They indicate corruption that slipped past the checksums
	// and make the recovered state untrustworthy.
	Anomalies []string
	// Sessions is the recovered exactly-once dedup table, keyed by
	// session id. An entry exists only when the TSession record's named
	// transaction committed in this prefix (or the record was an
	// unconditional checkpoint entry): a session record whose commit was
	// lost to the crash describes a request that never took effect.
	Sessions map[uint64]SessionEntry
}

// Ok reports whether the replay saw no anomalies. Truncation and
// discards are normal; anomalies are not.
func (r Report) Ok() bool { return len(r.Anomalies) == 0 }

func (r Report) String() string {
	s := fmt.Sprintf("recovered %d txn(s) from %d record(s) in %d segment(s)",
		len(r.State.Txns), r.Records, r.SegmentsRead)
	if r.Discarded > 0 {
		s += fmt.Sprintf(", discarded %d uncommitted txn(s) (%d op(s))", r.Discarded, r.DiscardedOps)
	}
	if r.Truncated != nil {
		s += fmt.Sprintf(", truncated: %v", r.Truncated)
	}
	if len(r.Anomalies) > 0 {
		s += fmt.Sprintf(", ANOMALIES: %v", r.Anomalies)
	}
	return s
}

// pendingTxn accumulates a transaction's pushes between its first PUSH
// and its CMT or abort.
type pendingTxn struct {
	name string
	ops  []spec.Op // in push order; retracted entries removed
}

// Recover replays the durable segment images (in order) and returns
// the recovered committed prefix. It never fails: corruption truncates,
// uncommitted work is discarded, and inconsistencies that a valid
// prefix cannot exhibit are reported as anomalies.
func Recover(segs [][]byte) Report {
	var rep Report
	var recs []wal.Record
	for i, seg := range segs {
		idx, err := wal.CheckSegmentHeader(seg)
		if err != nil {
			rep.Truncated = fmt.Errorf("segment %d: %w", i, err)
			break
		}
		if idx != i {
			rep.Truncated = fmt.Errorf("segment %d: header declares index %d", i, idx)
			break
		}
		body, _, reason := wal.DecodeAll(seg[wal.SegHeaderLen:])
		recs = append(recs, body...)
		rep.SegmentsRead++
		if reason != nil {
			// A torn tail ends the replayable prefix: later segments
			// were written after these bytes and must not be replayed
			// over the hole.
			rep.Truncated = fmt.Errorf("segment %d: %w", i, reason)
			break
		}
	}
	// The fold itself lives in Replayer (the incremental form the
	// replication follower also drives); a one-shot recovery is just
	// "feed the whole prefix, snapshot once". Pending transactions at
	// snapshot time are the crash suffix: the model's CMT never happened
	// for them, so their entries never became visible to any committed
	// reader (CMT criterion (iii) forces dependents to commit after
	// their dependencies) — dropping them is sound.
	rp := NewReplayer()
	for _, r := range recs {
		rp.Apply(r)
	}
	snap := rp.Snapshot()
	snap.SegmentsRead = rep.SegmentsRead
	snap.Truncated = rep.Truncated
	return snap
}

// ReLog re-encodes a recovered state as fresh WAL segment images: each
// transaction's operations as PUSH records followed by its CMT. This
// is the write path recovery would use to checkpoint its result, and
// the vehicle for the fixpoint law Recover(ReLog(Recover(x).State)) ==
// Recover(x).State.
func ReLog(s State) [][]byte {
	seg := wal.SegmentHeader(0)
	for _, t := range s.Txns {
		for _, op := range t.Ops {
			seg = wal.Encode(seg, wal.Record{Type: wal.TPush, Tx: t.Tx, Name: t.Name, Op: op})
		}
		seg = wal.Encode(seg, wal.Record{Type: wal.TCommit, Tx: t.Tx, Name: t.Name, Stamp: t.Stamp})
	}
	return [][]byte{seg}
}
