// Package irrevoc implements irrevocable transactions (Welc, Saha,
// Adl-Tabatabai, SPAA'08) — the §6.4 mixed model: at most one
// pessimistic, never-aborting ("irrevocable") transaction runs among
// ordinary optimistic transactions over the same versioned-lock word
// memory.
//
//   - Optimistic transactions follow the TL2 protocol: snapshot reads,
//     buffered writes, commit-time lock/validate/apply. In Push/Pull
//     terms they PUSH at commit and abort by UNAPP.
//   - The irrevocable transaction holds the global irrevocability token
//     and runs eagerly: it acquires each word's versioned lock at first
//     access and writes in place with an undo log kept only for
//     user-initiated failures. The TM never aborts it; conflicting
//     optimists see locked words or bumped versions and retry. In
//     Push/Pull terms it "PUSHes its effects instantaneously after APP".
package irrevoc

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"pushpull/internal/trace"
)

// ErrConflict aborts an optimistic attempt; Atomic retries it.
var ErrConflict = errors.New("irrevoc: conflict")

const lockBit = uint64(1)

func isLocked(v uint64) bool      { return v&lockBit != 0 }
func versionOf(v uint64) uint64   { return v >> 1 }
func makeVersion(v uint64) uint64 { return v << 1 }

type word struct {
	vlock atomic.Uint64
	value atomic.Int64
}

// Stats counts memory activity.
type Stats struct {
	OptCommits  uint64
	OptAborts   uint64
	IrrevRuns   uint64
	IrrevAborts uint64 // user errors only; the TM itself never aborts one
}

// Memory is the shared word array.
type Memory struct {
	clock atomic.Uint64
	words []word
	token sync.Mutex // the single irrevocability token

	// Name is the certification object name (an adt.Register binding).
	Name string
	// Recorder, when non-nil, certifies commits on a shadow machine.
	Recorder *trace.Recorder

	optCommits  atomic.Uint64
	optAborts   atomic.Uint64
	irrevRuns   atomic.Uint64
	irrevAborts atomic.Uint64
}

// New allocates a memory of n words.
func New(n int) *Memory {
	return &Memory{words: make([]word, n), Name: "mem"}
}

// Stats returns activity counters.
func (m *Memory) Stats() Stats {
	return Stats{OptCommits: m.optCommits.Load(), OptAborts: m.optAborts.Load(),
		IrrevRuns: m.irrevRuns.Load(), IrrevAborts: m.irrevAborts.Load()}
}

// ReadNoTx reads a word non-transactionally.
func (m *Memory) ReadNoTx(addr int) int64 { return m.words[addr].value.Load() }

// ---------- optimistic side (TL2 protocol) ----------

// Tx is one optimistic attempt.
type Tx struct {
	mem     *Memory
	rv      uint64
	reads   []readRec
	writes  map[int]int64
	program []progOp
}

type readRec struct {
	addr int
	val  int64
}

type progOp struct {
	isWrite bool
	addr    int
	val     int64
}

// Read returns the snapshot value of addr.
func (tx *Tx) Read(addr int) (int64, error) {
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
	tx.reads = append(tx.reads, readRec{addr: addr, val: val})
	tx.program = append(tx.program, progOp{addr: addr, val: val})
	return val, nil
}

// Write buffers a store.
func (tx *Tx) Write(addr int, val int64) error {
	if tx.writes == nil {
		tx.writes = make(map[int]int64)
	}
	tx.writes[addr] = val
	tx.program = append(tx.program, progOp{isWrite: true, addr: addr, val: val})
	return nil
}

// Atomic runs fn optimistically with retry; it coexists with (and
// defers to) any running irrevocable transaction purely through word
// versions and locks.
func (m *Memory) Atomic(name string, fn func(*Tx) error) error {
	for {
		tx := &Tx{mem: m, rv: m.clock.Load()}
		err := fn(tx)
		if err == nil {
			err = m.commitOpt(name, tx)
		}
		if err == nil {
			m.optCommits.Add(1)
			return nil
		}
		if !errors.Is(err, ErrConflict) {
			m.optAborts.Add(1)
			return err
		}
		m.optAborts.Add(1)
		runtime.Gosched()
	}
}

func (m *Memory) commitOpt(name string, tx *Tx) error {
	if len(tx.writes) == 0 {
		validate := func() ([]trace.OpRecord, bool) {
			for _, r := range tx.reads {
				v := m.words[r.addr].vlock.Load()
				if isLocked(v) || versionOf(v) > tx.rv {
					return nil, false
				}
			}
			return m.certOps(tx), true
		}
		if m.Recorder != nil {
			if ok, _ := m.Recorder.AtomicTxnFunc(name, validate); !ok {
				return ErrConflict
			}
			return nil
		}
		if _, ok := validate(); !ok {
			return ErrConflict
		}
		return nil
	}
	addrs := make([]int, 0, len(tx.writes))
	for a := range tx.writes {
		addrs = append(addrs, a)
	}
	sort.Ints(addrs)
	var locked []int
	unlock := func(apply bool, ver uint64) {
		for _, a := range locked {
			w := &m.words[a]
			if apply {
				w.value.Store(tx.writes[a])
				w.vlock.Store(makeVersion(ver))
			} else {
				w.vlock.Store(w.vlock.Load() &^ lockBit)
			}
		}
	}
	for _, a := range addrs {
		w := &m.words[a]
		ok := false
		for spin := 0; spin < 32; spin++ {
			v := w.vlock.Load()
			if isLocked(v) {
				runtime.Gosched()
				continue
			}
			if versionOf(v) > tx.rv {
				unlock(false, 0)
				return ErrConflict
			}
			if w.vlock.CompareAndSwap(v, v|lockBit) {
				ok = true
				break
			}
		}
		if !ok {
			unlock(false, 0)
			return ErrConflict
		}
		locked = append(locked, a)
	}
	wv := m.clock.Add(1)
	if wv != tx.rv+1 {
		for _, r := range tx.reads {
			v := m.words[r.addr].vlock.Load()
			if versionOf(v) > tx.rv {
				unlock(false, 0)
				return ErrConflict
			}
			if isLocked(v) {
				if _, mine := tx.writes[r.addr]; !mine {
					unlock(false, 0)
					return ErrConflict
				}
			}
		}
	}
	if m.Recorder != nil {
		// Revalidate the read set inside the recorder's critical section
		// so the certified order matches the lock-protocol serialization
		// order (see the same pattern in internal/stm/tl2).
		certified, refused := m.Recorder.AtomicTxnFunc(name, func() ([]trace.OpRecord, bool) {
			for _, r := range tx.reads {
				v := m.words[r.addr].vlock.Load()
				if versionOf(v) > tx.rv {
					return nil, false
				}
				if isLocked(v) {
					if _, mine := tx.writes[r.addr]; !mine {
						return nil, false
					}
				}
			}
			return m.certOps(tx), true
		})
		if refused != nil {
			unlock(true, wv)
			return fmt.Errorf("irrevoc: optimistic certification failed: %w", refused)
		}
		if !certified {
			unlock(false, 0)
			return ErrConflict
		}
	}
	unlock(true, wv)
	return nil
}

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
			ops = append(ops, trace.OpRecord{Obj: m.Name, Method: "write",
				Args: []int64{int64(p.addr), p.val}, Ret: old})
		} else {
			ops = append(ops, trace.OpRecord{Obj: m.Name, Method: "read",
				Args: []int64{int64(p.addr)}, Ret: p.val})
		}
	}
	return ops
}

// ---------- irrevocable side ----------

// IrrevTx is the running irrevocable transaction: eager word locking,
// in-place writes, no TM-initiated aborts.
type IrrevTx struct {
	mem  *Memory
	held map[int]uint64 // addr -> pre-lock version
	undo []readRec
	sess *trace.Session
}

// Read acquires addr's lock (waiting out optimistic committers) and
// reads in place.
func (tx *IrrevTx) Read(addr int) (int64, error) {
	if err := tx.lockWord(addr); err != nil {
		return 0, err
	}
	v := tx.mem.words[addr].value.Load()
	if tx.sess != nil {
		if !tx.sess.Op(tx.mem.Name, "read", []int64{int64(addr)}, v) {
			return 0, fmt.Errorf("irrevoc: read certification failed: %w", tx.mem.Recorder.Err())
		}
	}
	return v, nil
}

// Write acquires addr's lock and writes in place, logging the old value
// for user-error rollback.
func (tx *IrrevTx) Write(addr int, val int64) error {
	if err := tx.lockWord(addr); err != nil {
		return err
	}
	w := &tx.mem.words[addr]
	old := w.value.Load()
	tx.undo = append(tx.undo, readRec{addr: addr, val: old})
	w.value.Store(val)
	if tx.sess != nil {
		if !tx.sess.Op(tx.mem.Name, "write", []int64{int64(addr), val}, old) {
			return fmt.Errorf("irrevoc: write certification failed: %w", tx.mem.Recorder.Err())
		}
	}
	return nil
}

// lockWord spins until the word's versioned lock is ours. The
// irrevocable transaction never gives up: optimistic holders release
// their commit locks in bounded time.
func (tx *IrrevTx) lockWord(addr int) error {
	if _, mine := tx.held[addr]; mine {
		return nil
	}
	w := &tx.mem.words[addr]
	for {
		v := w.vlock.Load()
		if !isLocked(v) && w.vlock.CompareAndSwap(v, v|lockBit) {
			tx.held[addr] = versionOf(v)
			return nil
		}
		runtime.Gosched()
	}
}

// AtomicIrrevocable runs fn as the (single) irrevocable transaction.
// The TM never aborts it; only a user error rolls it back (via the undo
// log) before the error is returned.
func (m *Memory) AtomicIrrevocable(name string, fn func(*IrrevTx) error) error {
	m.token.Lock()
	defer m.token.Unlock()
	m.irrevRuns.Add(1)
	tx := &IrrevTx{mem: m, held: make(map[int]uint64)}
	if m.Recorder != nil {
		tx.sess = m.Recorder.Begin(name)
	}
	err := fn(tx)
	if err != nil {
		// User failure: roll back in place, release with old versions.
		for i := len(tx.undo) - 1; i >= 0; i-- {
			m.words[tx.undo[i].addr].value.Store(tx.undo[i].val)
		}
		if tx.sess != nil {
			tx.sess.Abort()
		}
		for addr, ver := range tx.held {
			m.words[addr].vlock.Store(makeVersion(ver))
		}
		m.irrevAborts.Add(1)
		return err
	}
	if tx.sess != nil && !tx.sess.Commit() {
		err = fmt.Errorf("irrevoc: commit certification failed: %w", m.Recorder.Err())
	}
	// Release every held word with a fresh version so optimistic
	// snapshots that overlapped us revalidate.
	wv := m.clock.Add(1)
	for addr := range tx.held {
		m.words[addr].vlock.Store(makeVersion(wv))
	}
	return err
}
