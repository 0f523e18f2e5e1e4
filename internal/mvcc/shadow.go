package mvcc

import (
	"fmt"
	"sync"
)

// shadow is the read-only transaction certifier: an independent, flat
// materialization of the committed write history, fed by the same
// Store.Commit as the version chains but kept as an ordered window of
// (seq, write-set) records over a folded base image. certify demands
// that every read of a read-only transaction equals the latest
// committed write at or below its snapshot watermark.
//
// A read-only transaction that reads a single committed prefix is
// serializable (the read-only serializability theorem for SI — see
// PAPERS.md, "On the Semantics of Snapshot Isolation"), so passing
// certify gives it a serial position: right after the commit it
// pinned. The certifier is deliberately redundant with the chains —
// two independent folds of the same write-sets must agree, or one of
// them is broken.
type shadow struct {
	mu   sync.Mutex
	mode Mode

	base    map[uint64]entry // folded image of commits <= baseSeq
	baseSeq uint64
	window  []commitRec // commits in (baseSeq, head], ascending seq
	head    uint64
}

type entry struct {
	val     int64
	present bool
}

type commitRec struct {
	seq    uint64
	writes []write
}

// readObs is one observed read of a read-only transaction: the chain
// key it consulted and the (value, found) the snapshot answered.
type readObs struct {
	key   uint64
	val   int64
	found bool
}

func newShadow(mode Mode) *shadow {
	return &shadow{mode: mode, base: make(map[uint64]entry)}
}

// append records one committed transaction; Store.Commit is its only
// caller, in strictly increasing seq order, and hands over ownership of
// writes.
func (sh *shadow) append(seq uint64, writes []write) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if seq <= sh.head {
		panic(fmt.Sprintf("mvcc: shadow commit seq %d not above head %d", seq, sh.head))
	}
	if len(writes) != 0 {
		sh.window = append(sh.window, commitRec{seq: seq, writes: writes})
	}
	sh.head = seq
}

// trimTo folds every windowed commit at or below bound into the base
// image. The store's GC calls this with its own truncation bound, so
// any watermark a live snapshot can hold stays certifiable.
func (sh *shadow) trimTo(bound uint64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i := 0
	for i < len(sh.window) && sh.window[i].seq <= bound {
		for _, w := range sh.window[i].writes {
			sh.base[w.key] = entry{val: w.val, present: w.present}
		}
		i++
	}
	if i > 0 {
		sh.window = append(sh.window[:0:0], sh.window[i:]...)
	}
	if bound > sh.baseSeq {
		sh.baseSeq = bound
	}
	if sh.baseSeq > sh.head {
		sh.head = sh.baseSeq
	}
}

// lookupLocked resolves the committed value of chain key k at
// watermark w.
func (sh *shadow) lookupLocked(k uint64, w uint64) (int64, bool) {
	// Newest window commit at or below w wins; within one commit the
	// last write to the key wins.
	for i := len(sh.window) - 1; i >= 0; i-- {
		rec := sh.window[i]
		if rec.seq > w {
			continue
		}
		for j := len(rec.writes) - 1; j >= 0; j-- {
			if rec.writes[j].key == k {
				return rec.writes[j].val, rec.writes[j].present
			}
		}
	}
	if e, ok := sh.base[k]; ok {
		return e.val, e.present
	}
	return 0, sh.mode == ModeRegister // registers default to zero
}

// certify checks a read-only transaction's full result set against
// the committed history at watermark w. A nil return means every read
// is exactly the latest committed write at or below w — the
// transaction read a single committed prefix and is serializable at
// position w.
func (sh *shadow) certify(w uint64, reads []readObs) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if w < sh.baseSeq {
		return fmt.Errorf("mvcc: snapshot watermark %d below certifiable window (base %d): pin outlived GC bound", w, sh.baseSeq)
	}
	if w > sh.head {
		return fmt.Errorf("mvcc: snapshot watermark %d above committed head %d: read an uncommitted future", w, sh.head)
	}
	for _, r := range reads {
		val, present := sh.lookupLocked(r.key, w)
		if r.found != present || (present && r.val != val) {
			return fmt.Errorf("mvcc: read-only txn at watermark %d read key %d = (%d, found=%v), committed history says (%d, found=%v): not a committed prefix",
				w, r.key, r.val, r.found, val, present)
		}
	}
	return nil
}
