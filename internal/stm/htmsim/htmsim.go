// Package htmsim simulates a best-effort hardware transactional memory
// (Intel Haswell RTM / IBM zEC12 class) in software — the documented
// substitution for real HTM hardware (see DESIGN.md):
//
//   - speculative read/write sets with buffered (write-back) stores:
//     effects are invisible until commit, like L1-buffered HTM lines;
//   - eager conflict detection through a per-word ownership table:
//     touching a word owned conflictingly by another active transaction
//     aborts immediately with Conflict, the analogue of a coherence
//     invalidation killing a transactional cache line;
//   - capacity aborts past a configurable read+write-set budget, the
//     analogue of cache-geometry overflow;
//   - a global fallback lock (classic lock elision): after MaxRetries
//     speculative attempts, Atomic runs the body non-speculatively under
//     the lock, which every speculative attempt subscribes to.
//
// In Push/Pull terms (§6.2 applied to HTM): a speculative transaction
// APPlies privately and PUSHes everything at the commit instant (while
// owning every touched word exclusively enough); an abort is pure
// UNAPP. Certified runs replay exactly that on the shadow machine.
package htmsim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pushpull/internal/chaos"
	"pushpull/internal/core"
	"pushpull/internal/trace"
)

// AbortCode classifies hardware aborts.
type AbortCode int

// Abort codes.
const (
	// Conflict: another active transaction owns a touched word.
	Conflict AbortCode = iota
	// Capacity: the read+write set exceeded the speculative budget.
	Capacity
	// Explicit: the user called Tx.Abort (XABORT).
	Explicit
)

func (c AbortCode) String() string {
	switch c {
	case Conflict:
		return "conflict"
	case Capacity:
		return "capacity"
	case Explicit:
		return "explicit"
	default:
		return "unknown"
	}
}

// AbortError is the "hardware" abort status, retryable or not by the
// caller's policy.
type AbortError struct{ Code AbortCode }

func (e *AbortError) Error() string { return "htmsim: abort (" + e.Code.String() + ")" }

// IsAbort extracts the abort code from an error.
func IsAbort(err error) (AbortCode, bool) {
	var ae *AbortError
	if errors.As(err, &ae) {
		return ae.Code, true
	}
	return 0, false
}

type ownerEntry struct {
	mu      sync.Mutex
	writer  uint64
	readers map[uint64]bool
}

// Stats counts HTM activity.
type Stats struct {
	Commits        uint64
	ConflictAborts uint64
	CapacityAborts uint64
	Fallbacks      uint64
}

// HTM is a simulated transactional memory over a word array.
type HTM struct {
	values []atomic.Int64
	owners []ownerEntry
	ids    atomic.Uint64

	// Capacity bounds |readSet ∪ writeSet| per transaction (default 64).
	Capacity int
	// MaxRetries bounds speculative attempts before the fallback lock
	// (default 8).
	MaxRetries int
	// Name is the certification object name (an adt.Register binding).
	Name string
	// Recorder, when non-nil, certifies commits on a shadow machine.
	Recorder *trace.Recorder
	// Injector, when non-nil, is consulted at the speculative fault
	// sites (SiteHTMConflict/SiteHTMCapacity on reads and writes,
	// SiteHTMCommit at the commit instant). Injected aborts are
	// indistinguishable from organic ones to callers.
	Injector chaos.Injector
	// Retry, when non-nil, shapes the backoff between speculative
	// attempts in Atomic (the retry count itself stays MaxRetries).
	Retry *chaos.RetryPolicy
	// Durable, when non-nil, is the commit-path durability barrier:
	// the write-ahead log is flushed before a commit is acknowledged.
	Durable core.Durable

	// fbLock serializes fallback execution against speculative commits
	// (speculative commits hold it shared). fbEpoch is odd while a
	// fallback runs; a speculative attempt records the epoch at begin
	// and aborts at commit if it changed — the software analogue of
	// lock-elision subscription.
	fbLock  sync.RWMutex
	fbEpoch atomic.Uint64

	commits   atomic.Uint64
	conflicts atomic.Uint64
	capacity  atomic.Uint64
	fallbacks atomic.Uint64
}

// New allocates an HTM over n words.
func New(n int) *HTM {
	h := &HTM{values: make([]atomic.Int64, n), owners: make([]ownerEntry, n),
		Capacity: 64, MaxRetries: 8, Name: "mem"}
	for i := range h.owners {
		h.owners[i].readers = make(map[uint64]bool)
	}
	return h
}

// Stats returns activity counters.
func (h *HTM) Stats() Stats {
	return Stats{Commits: h.commits.Load(), ConflictAborts: h.conflicts.Load(),
		CapacityAborts: h.capacity.Load(), Fallbacks: h.fallbacks.Load()}
}

// ReadNoTx reads a word non-transactionally.
// durableBarrier flushes the write-ahead log (when attached) so an
// acknowledged commit is on stable storage. The committing
// transaction's name routes through the name-aware barrier when the
// attached Durable implements it (see core.Barrier).
func (h *HTM) durableBarrier(name string) {
	_ = core.Barrier(h.Durable, name)
}

func (h *HTM) ReadNoTx(addr int) int64 { return h.values[addr].Load() }

func (h *HTM) inject(site chaos.Site) bool {
	return h.Injector != nil && h.Injector.Fire(site)
}

// injectSpec checks the speculative fault sites for tx; fallback
// (direct) transactions cannot abort and are never injected.
func (tx *Tx) injectSpec() *AbortError {
	if tx.direct || tx.h.Injector == nil {
		return nil
	}
	if tx.h.inject(chaos.SiteHTMCapacity) {
		tx.abort(Capacity)
		return tx.dead
	}
	if tx.h.inject(chaos.SiteHTMConflict) {
		tx.abort(Conflict)
		return tx.dead
	}
	return nil
}

// Tx is one speculative attempt.
type Tx struct {
	h     *HTM
	id    uint64
	epoch uint64
	// direct marks the fallback (non-speculative) mode: ownership and
	// capacity checks are bypassed — the global lock plus the epoch
	// subscription make that safe.
	direct bool

	reads   map[int]int64 // first-read values (for certification)
	writes  map[int]int64 // buffered stores
	program []progOp
	dead    *AbortError
	// captured holds the certification records snapshotted at the commit
	// point (before the buffered stores were applied), so write
	// old-values are reconstructed against the pre-commit memory.
	captured []trace.OpRecord
}

type progOp struct {
	isWrite bool
	addr    int
	val     int64
}

func (tx *Tx) abort(code AbortCode) error {
	tx.dead = &AbortError{Code: code}
	return tx.dead
}

func (tx *Tx) footprint() int {
	seen := make(map[int]bool, len(tx.reads)+len(tx.writes))
	for a := range tx.reads {
		seen[a] = true
	}
	for a := range tx.writes {
		seen[a] = true
	}
	return len(seen)
}

// inFootprint reports whether addr is already a tracked line.
func (tx *Tx) inFootprint(addr int) bool {
	if _, ok := tx.reads[addr]; ok {
		return true
	}
	_, ok := tx.writes[addr]
	return ok
}

// Read speculatively loads a word, registering read ownership.
func (tx *Tx) Read(addr int) (int64, error) {
	if tx.dead != nil {
		return 0, tx.dead
	}
	if ae := tx.injectSpec(); ae != nil {
		return 0, ae
	}
	if v, ok := tx.writes[addr]; ok {
		tx.program = append(tx.program, progOp{addr: addr, val: v})
		return v, nil
	}
	if v, ok := tx.reads[addr]; ok {
		tx.program = append(tx.program, progOp{addr: addr, val: v})
		return v, nil
	}
	if tx.direct {
		v := tx.h.values[addr].Load()
		tx.reads[addr] = v
		tx.program = append(tx.program, progOp{addr: addr, val: v})
		return v, nil
	}
	if !tx.inFootprint(addr) && tx.footprint()+1 > tx.h.Capacity {
		return 0, tx.abort(Capacity)
	}
	oe := &tx.h.owners[addr]
	oe.mu.Lock()
	if oe.writer != 0 && oe.writer != tx.id {
		oe.mu.Unlock()
		return 0, tx.abort(Conflict)
	}
	oe.readers[tx.id] = true
	v := tx.h.values[addr].Load()
	oe.mu.Unlock()
	tx.reads[addr] = v
	tx.program = append(tx.program, progOp{addr: addr, val: v})
	return v, nil
}

// Write speculatively buffers a store, taking exclusive ownership.
func (tx *Tx) Write(addr int, val int64) error {
	if tx.dead != nil {
		return tx.dead
	}
	if ae := tx.injectSpec(); ae != nil {
		return ae
	}
	if _, mine := tx.writes[addr]; !mine && !tx.direct {
		if !tx.inFootprint(addr) && tx.footprint()+1 > tx.h.Capacity {
			return tx.abort(Capacity)
		}
		oe := &tx.h.owners[addr]
		oe.mu.Lock()
		if oe.writer != 0 && oe.writer != tx.id {
			oe.mu.Unlock()
			return tx.abort(Conflict)
		}
		for r := range oe.readers {
			if r != tx.id {
				oe.mu.Unlock()
				return tx.abort(Conflict)
			}
		}
		oe.writer = tx.id
		oe.mu.Unlock()
	}
	tx.writes[addr] = val
	tx.program = append(tx.program, progOp{isWrite: true, addr: addr, val: val})
	return nil
}

// Abort explicitly aborts the attempt (XABORT).
func (tx *Tx) Abort() error { return tx.abort(Explicit) }

func (tx *Tx) releaseOwnership() {
	for a := range tx.reads {
		oe := &tx.h.owners[a]
		oe.mu.Lock()
		delete(oe.readers, tx.id)
		oe.mu.Unlock()
	}
	for a := range tx.writes {
		oe := &tx.h.owners[a]
		oe.mu.Lock()
		if oe.writer == tx.id {
			oe.writer = 0
		}
		delete(oe.readers, tx.id)
		oe.mu.Unlock()
	}
}

// commit applies the buffered stores. Ownership guarantees exclusivity
// against other speculative transactions; the shared fallback lock plus
// the epoch check guarantee no fallback ran (or runs) across us.
func (tx *Tx) commit(name string) error {
	if tx.dead != nil {
		return tx.dead
	}
	if !tx.direct && tx.h.inject(chaos.SiteHTMCommit) {
		return tx.abort(Conflict)
	}
	tx.h.fbLock.RLock()
	defer tx.h.fbLock.RUnlock()
	if tx.h.fbEpoch.Load() != tx.epoch {
		return tx.abort(Conflict)
	}
	tx.captured = tx.certOps()
	if tx.h.Recorder != nil {
		if err := tx.h.Recorder.AtomicTxn(name, tx.captured); err != nil {
			return fmt.Errorf("htmsim: certification failed: %w", err)
		}
	}
	for a, v := range tx.writes {
		tx.h.values[a].Store(v)
	}
	return nil
}

func (tx *Tx) certOps() []trace.OpRecord {
	current := make(map[int]int64)
	ops := make([]trace.OpRecord, 0, len(tx.program))
	lookup := func(addr int) int64 {
		if v, ok := current[addr]; ok {
			return v
		}
		return tx.h.values[addr].Load()
	}
	for _, p := range tx.program {
		if p.isWrite {
			old := lookup(p.addr)
			current[p.addr] = p.val
			ops = append(ops, trace.OpRecord{Obj: tx.h.Name, Method: "write",
				Args: []int64{int64(p.addr), p.val}, Ret: old})
		} else {
			ops = append(ops, trace.OpRecord{Obj: tx.h.Name, Method: "read",
				Args: []int64{int64(p.addr)}, Ret: p.val})
		}
	}
	return ops
}

// TxnOnce runs one speculative attempt without retry or fallback,
// returning the abort status — the raw XBEGIN/XEND interface the hybrid
// runtime of Section 7 needs.
func (h *HTM) TxnOnce(name string, fn func(*Tx) error) error {
	epoch := h.fbEpoch.Load()
	if epoch%2 == 1 {
		return &AbortError{Code: Conflict} // fallback in progress
	}
	tx := &Tx{h: h, id: h.ids.Add(1), epoch: epoch, reads: map[int]int64{}, writes: map[int]int64{}}
	err := fn(tx)
	if err == nil {
		err = tx.commit(name)
	}
	tx.releaseOwnership()
	if err == nil {
		h.durableBarrier(name)
		h.commits.Add(1)
		return nil
	}
	if code, ok := IsAbort(err); ok {
		switch code {
		case Conflict:
			h.conflicts.Add(1)
		case Capacity:
			h.capacity.Add(1)
		}
	}
	return err
}

// Atomic runs fn with retry and lock-elision fallback: speculative
// attempts up to MaxRetries, then the global lock.
func (h *HTM) Atomic(name string, fn func(*Tx) error) error {
	for attempt := 0; attempt < h.MaxRetries; attempt++ {
		err := h.TxnOnce(name, fn)
		if err == nil {
			return nil
		}
		code, ok := IsAbort(err)
		if !ok {
			return err // user error: no retry
		}
		if code == Capacity || code == Explicit {
			break // retrying cannot help
		}
		if h.Retry != nil {
			h.Retry.Backoff(attempt + 1)
		} else {
			for i := 0; i <= attempt; i++ {
				runtime.Gosched()
			}
		}
	}
	return h.runFallback(name, fn)
}

// runFallback executes fn non-speculatively under the global lock.
// Speculative transactions subscribe to the lock (abort when it is
// held), so direct reads and writes are safe.
func (h *HTM) runFallback(name string, fn func(*Tx) error) error {
	h.fbLock.Lock()
	h.fbEpoch.Add(1) // odd: fallback active
	defer func() {
		h.fbEpoch.Add(1) // even: idle again, but epoch moved on
		h.fbLock.Unlock()
	}()
	h.fallbacks.Add(1)
	tx := &Tx{h: h, id: h.ids.Add(1), direct: true, reads: map[int]int64{}, writes: map[int]int64{}}
	if err := fn(tx); err != nil {
		if code, ok := IsAbort(err); ok && code == Explicit {
			return err
		}
		return err
	}
	if h.Recorder != nil {
		if err := h.Recorder.AtomicTxn(name, tx.certOps()); err != nil {
			return fmt.Errorf("htmsim: fallback certification failed: %w", err)
		}
	}
	for a, v := range tx.writes {
		h.values[a].Store(v)
	}
	h.durableBarrier(name)
	h.commits.Add(1)
	return nil
}

// Begin opens a manual speculative transaction (XBEGIN). The caller
// drives Read/Write and must end it with Commit or Cancel — the raw
// interface hybrid runtimes (Section 7) build on.
func (h *HTM) Begin() *Tx {
	return &Tx{h: h, id: h.ids.Add(1), epoch: h.fbEpoch.Load(),
		reads: map[int]int64{}, writes: map[int]int64{}}
}

// Commit ends a manual transaction (XEND), applying its buffered
// stores. On failure the transaction is cancelled and the abort status
// returned.
func (tx *Tx) Commit(name string) error {
	err := tx.commit(name)
	tx.releaseOwnership()
	if err == nil {
		tx.h.durableBarrier(name)
		tx.h.commits.Add(1)
		return nil
	}
	if code, ok := IsAbort(err); ok {
		switch code {
		case Conflict:
			tx.h.conflicts.Add(1)
		case Capacity:
			tx.h.capacity.Add(1)
		}
	}
	return err
}

// Cancel ends a manual transaction without applying it (XABORT at the
// runtime's initiative): buffered effects vanish, ownership is
// released.
func (tx *Tx) Cancel() {
	tx.releaseOwnership()
}

// BeginFallback opens a manual non-speculative transaction under the
// global fallback lock — the degraded-mode interface a hybrid runtime
// switches to after repeated capacity aborts. It blocks until the lock
// is free, kills in-flight speculators via the epoch subscription, and
// must be ended with EndFallback. Reads and writes on the returned Tx
// never abort.
func (h *HTM) BeginFallback() *Tx {
	h.fbLock.Lock()
	h.fbEpoch.Add(1) // odd: fallback active
	h.fallbacks.Add(1)
	return &Tx{h: h, id: h.ids.Add(1), direct: true, reads: map[int]int64{}, writes: map[int]int64{}}
}

// EndFallback ends a manual fallback transaction, applying its buffered
// stores when commit is true, then releases the lock and advances the
// epoch so speculative subscribers notice.
func (tx *Tx) EndFallback(commit bool) {
	if commit {
		tx.captured = tx.certOps()
		for a, v := range tx.writes {
			tx.h.values[a].Store(v)
		}
		tx.h.durableBarrier("") // manual fallback: no transaction name
		tx.h.commits.Add(1)
	}
	tx.h.fbEpoch.Add(1)
	tx.h.fbLock.Unlock()
}

// Ops exposes the attempt's program-order operation records with
// reconstructed write returns — what a hybrid runtime feeds into a
// shared certification session at the commit linearization point. After
// Commit it returns the records snapshotted at the commit point.
func (tx *Tx) Ops() []trace.OpRecord {
	if tx.captured != nil {
		return tx.captured
	}
	return tx.certOps()
}
