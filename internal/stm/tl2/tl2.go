// Package tl2 is a word-based optimistic software transactional memory
// in the style of Transactional Locking II (Dice, Shalev, Shavit,
// DISC'06) — the canonical §6.2 substrate: a global version clock,
// per-word versioned write-locks, invisible reads validated against a
// read version, and commit-time lock-validate-write-release.
//
// In Push/Pull terms (Section 6.2): a transaction PULLs the committed
// state (its read snapshot), APPlies reads and writes locally, and at
// an uninterleaved moment (write locks held, read set validated)
// PUSHes everything and CMTs; a conflicted transaction UNAPPlies and
// retries — it never needs UNPUSH. Instrumented runs certify exactly
// that decomposition on a shadow machine (internal/trace).
package tl2

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"pushpull/internal/chaos"
	"pushpull/internal/core"
	"pushpull/internal/trace"
)

// ErrConflict aborts the current attempt; Atomic retries it.
var ErrConflict = errors.New("tl2: conflict")

// lockBit marks a word's version-lock as held.
const lockBit = uint64(1)

func isLocked(v uint64) bool        { return v&lockBit != 0 }
func versionOf(v uint64) uint64     { return v >> 1 }
func makeVersion(ver uint64) uint64 { return ver << 1 }

type word struct {
	vlock atomic.Uint64 // version<<1 | lockBit
	value atomic.Int64
}

// Stats counts memory-wide commit activity.
type Stats struct {
	Commits uint64
	Aborts  uint64
}

// Memory is a transactional array of words.
type Memory struct {
	clock atomic.Uint64
	words []word

	// Name is the object instance name used in certification records
	// (must match the registry binding of an adt.Register).
	Name string
	// Recorder, when non-nil, certifies every commit on a shadow
	// Push/Pull machine.
	Recorder *trace.Recorder
	// Injector, when non-nil, is consulted at the fault sites
	// (SiteTL2Read per transactional read, SiteTL2Commit per commit);
	// injected faults surface as ordinary ErrConflict aborts.
	Injector chaos.Injector
	// Retry, when non-nil, bounds retries and shapes backoff in
	// AtomicNamed; an exhausted budget returns ErrRetriesExhausted
	// (wrapped).
	Retry *chaos.RetryPolicy
	// Durable, when non-nil, is the commit-path durability barrier:
	// the write-ahead log is flushed before a commit is acknowledged.
	Durable core.Durable

	commits atomic.Uint64
	aborts  atomic.Uint64
}

// New allocates a memory of n words, all zero.
func New(n int) *Memory {
	return &Memory{words: make([]word, n), Name: "mem"}
}

// Stats returns commit/abort counts.
func (m *Memory) Stats() Stats {
	return Stats{Commits: m.commits.Load(), Aborts: m.aborts.Load()}
}

// ReadNoTx reads a word non-transactionally (for test verification on
// quiescent memory).
func (m *Memory) ReadNoTx(addr int) int64 { return m.words[addr].value.Load() }

type writeRec struct {
	addr int
	val  int64
}

// Tx is one transaction attempt.
type Tx struct {
	mem *Memory
	rv  uint64

	reads   []writeRec    // addr/value pairs observed
	writes  map[int]int64 // final value per address
	program []progOp      // full program-order op list, for certification
}

type progOp struct {
	isWrite bool
	addr    int
	val     int64 // read: observed value; write: written value
}

// Read returns the word at addr as of the transaction's snapshot.
func (tx *Tx) Read(addr int) (int64, error) {
	if inj := tx.mem.Injector; inj != nil && inj.Fire(chaos.SiteTL2Read) {
		return 0, ErrConflict
	}
	if v, ok := tx.writes[addr]; ok {
		tx.program = append(tx.program, progOp{addr: addr, val: v})
		return v, nil
	}
	w := &tx.mem.words[addr]
	v1 := w.vlock.Load()
	if isLocked(v1) || versionOf(v1) > tx.rv {
		return 0, ErrConflict
	}
	val := w.value.Load()
	if w.vlock.Load() != v1 {
		return 0, ErrConflict
	}
	tx.reads = append(tx.reads, writeRec{addr: addr, val: val})
	tx.program = append(tx.program, progOp{addr: addr, val: val})
	return val, nil
}

// Write buffers a write of val to addr (redo-log style: invisible until
// commit).
func (tx *Tx) Write(addr int, val int64) error {
	if tx.writes == nil {
		tx.writes = make(map[int]int64)
	}
	tx.writes[addr] = val
	tx.program = append(tx.program, progOp{isWrite: true, addr: addr, val: val})
	return nil
}

// Atomic runs fn transactionally, retrying on conflicts until commit.
// A non-ErrConflict error from fn aborts without retry and is returned.
func (m *Memory) Atomic(fn func(*Tx) error) error {
	return m.AtomicNamed("", fn)
}

// AtomicNamed is Atomic with a transaction name for certification.
func (m *Memory) AtomicNamed(name string, fn func(*Tx) error) error {
	for attempt := 0; ; attempt++ {
		tx := &Tx{mem: m, rv: m.clock.Load()}
		err := fn(tx)
		if err == nil {
			err = m.commit(name, tx)
		}
		if err == nil {
			_ = core.Barrier(m.Durable, name)
			m.commits.Add(1)
			return nil
		}
		if !errors.Is(err, ErrConflict) {
			m.aborts.Add(1)
			return err
		}
		m.aborts.Add(1)
		if m.Retry != nil {
			if !m.Retry.Allow(attempt + 1) {
				return fmt.Errorf("tl2: %w", chaos.ErrRetriesExhausted)
			}
			m.Retry.Backoff(attempt + 1)
			continue
		}
		// Bounded backoff keeps the single-CPU cooperative case live.
		for i := 0; i < attempt%8; i++ {
			runtime.Gosched()
		}
	}
}

// commit is the TL2 commit protocol: lock the write set in address
// order, increment the clock, validate the read set against rv, apply,
// and release with the new version. The shadow certification runs while
// the locks are held (the linearization point).
func (m *Memory) commit(name string, tx *Tx) error {
	if m.Injector != nil && m.Injector.Fire(chaos.SiteTL2Commit) {
		return ErrConflict
	}
	if len(tx.writes) == 0 {
		// Read-only: reads were validated individually against rv; the
		// serialization point is the final revalidation, which runs
		// inside the recorder's critical section when certifying.
		if m.Recorder != nil {
			okCert, _ := m.Recorder.AtomicTxnFunc(name, func() ([]trace.OpRecord, bool) {
				if !m.validateReads(tx, 0, false) {
					return nil, false
				}
				return m.certOps(tx), true
			})
			if !okCert {
				return ErrConflict
			}
			return nil
		}
		if !m.validateReads(tx, 0, false) {
			return ErrConflict
		}
		return nil
	}

	addrs := make([]int, 0, len(tx.writes))
	for a := range tx.writes {
		addrs = append(addrs, a)
	}
	sort.Ints(addrs)

	locked := make([]int, 0, len(addrs))
	release := func(ver uint64, apply bool) {
		for _, a := range locked {
			w := &m.words[a]
			if apply {
				w.value.Store(tx.writes[a])
				w.vlock.Store(makeVersion(ver))
			} else {
				// Restore the pre-lock version.
				w.vlock.Store(w.vlock.Load() &^ lockBit)
			}
		}
	}
	for _, a := range addrs {
		w := &m.words[a]
		acquired := false
		for spin := 0; spin < 64; spin++ {
			v := w.vlock.Load()
			if isLocked(v) {
				runtime.Gosched()
				continue
			}
			if versionOf(v) > tx.rv {
				// A committed write since our snapshot: even our write
				// may be based on a stale read of this word; abort.
				release(0, false)
				return ErrConflict
			}
			if w.vlock.CompareAndSwap(v, v|lockBit) {
				acquired = true
				break
			}
		}
		if !acquired {
			release(0, false)
			return ErrConflict
		}
		locked = append(locked, a)
	}

	// A plan naming SiteTL2SkipRevalidate breaks the protocol on
	// purpose: the read set goes unchecked, and only the certifier
	// stands between a stale read and the substrate.
	skip := m.Injector != nil && m.Injector.Fire(chaos.SiteTL2SkipRevalidate)
	wv := m.clock.Add(1)
	if wv != tx.rv+1 && !skip {
		if !m.validateReads(tx, 0, true) {
			release(0, false)
			return ErrConflict
		}
	}

	if m.Recorder != nil {
		// The recorder serializes shadow commits; our write locks protect
		// the write set, but the read set is only protected by the
		// validation instant. A conflicting writer may shadow-commit
		// between our validation above and our turn on the recorder, so
		// the reads are REVALIDATED inside the recorder's critical
		// section: the certified order then agrees with the lock-protocol
		// serialization order. (A still-locked read word means such a
		// writer is mid-commit; we abort and retry.)
		certified, refused := m.Recorder.AtomicTxnFunc(name, func() ([]trace.OpRecord, bool) {
			if !skip && !m.validateReads(tx, 0, true) {
				return nil, false
			}
			return m.certOps(tx), true
		})
		if refused != nil {
			// Model violation: the certifier refused what the protocol
			// admitted. Roll back — applying would leave the substrate
			// holding a value no certificate admits, and every later
			// reader of the word would be refused too.
			release(0, false)
			return fmt.Errorf("tl2: certification failed: %w", refused)
		}
		if !certified {
			// Revalidation failed: a plain conflict.
			release(0, false)
			return ErrConflict
		}
	}
	release(wv, true)
	return nil
}

// validateReads re-checks every read word: unlocked (or locked by us —
// selfLocked when we hold write locks) and version ≤ rv.
func (m *Memory) validateReads(tx *Tx, _ uint64, selfLocked bool) bool {
	for _, r := range tx.reads {
		w := &m.words[r.addr]
		v := w.vlock.Load()
		if versionOf(v) > tx.rv {
			return false
		}
		if isLocked(v) {
			if !selfLocked {
				return false
			}
			if _, mine := tx.writes[r.addr]; !mine {
				return false
			}
		}
	}
	return true
}

// certOps converts the attempt's program-order operations to
// certification records: reads carry the observed value; each write's
// return (the overwritten value) is reconstructed left to right from
// the committed values at the linearization point.
func (m *Memory) certOps(tx *Tx) []trace.OpRecord {
	current := make(map[int]int64)
	ops := make([]trace.OpRecord, 0, len(tx.program))
	lookup := func(addr int) int64 {
		if v, ok := current[addr]; ok {
			return v
		}
		return m.words[addr].value.Load()
	}
	for _, p := range tx.program {
		if p.isWrite {
			old := lookup(p.addr)
			current[p.addr] = p.val
			ops = append(ops, trace.OpRecord{
				Obj: m.Name, Method: "write", Args: []int64{int64(p.addr), p.val}, Ret: old,
			})
		} else {
			// The observed value, NOT the current committed one: the
			// shadow machine recomputes the read against the committed
			// view and flags any divergence — a stale read slipping past
			// validation would fail certification here.
			ops = append(ops, trace.OpRecord{
				Obj: m.Name, Method: "read", Args: []int64{int64(p.addr)}, Ret: p.val,
			})
		}
	}
	return ops
}
