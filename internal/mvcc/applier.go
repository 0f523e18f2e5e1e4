package mvcc

import (
	"sync"

	"pushpull/internal/adt"
	"pushpull/internal/core"
	"pushpull/internal/ops"
	"pushpull/internal/spec"
)

// Applier feeds the shadow machine's event stream into a Store. It is
// a core.EventSink attached next to the metrics suite on the
// certifying recorder: PUSH buffers a transaction's operations, UNPUSH
// retracts one (substrate rollback), CMT hands the buffer to
// Store.Commit at the machine's commit stamp, ABORT discards it.
// Because the recorder mutex serializes dispatch, commits arrive here
// in true commit order and the stamps are strictly monotonic — the
// version store inherits the WAL's serialization-witness property for
// free.
type Applier struct {
	st *Store

	mu      sync.Mutex
	pending map[uint64][]spec.Op // machine thread -> pushed operations
}

// NewApplier builds the sink feeding st.
func NewApplier(st *Store) *Applier {
	return &Applier{st: st, pending: make(map[uint64][]spec.Op)}
}

var _ core.EventSink = (*Applier)(nil)

// translate projects one operation of the shadow-machine op alphabet
// onto the KV write-set. Reads and non-KV objects (the hybrid's "htm"
// counter register) fold to nothing.
func translate(mode Mode, op spec.Op) (write, bool) {
	a := op.Args
	switch {
	case mode == ModeRegister:
		if op.Obj == "mem" && op.Method == adt.MWrite && len(a) >= 2 {
			return write{key: uint64(a[0]), val: a[1], present: true}, true
		}
	case op.Obj == "ht" && op.Method == adt.MMapPut && len(a) >= 2:
		return write{key: uint64(a[0]), val: a[1], present: true}, true
	case op.Obj == "ht" && op.Method == adt.MMapRemove && len(a) >= 1:
		return write{key: uint64(a[0])}, true
	case op.Obj != ops.Obj || len(a) < 2:
		// Not a typed counter operation: nothing to fold.
	// Typed counter cells fold at ops.KeyBit|k, away from the blind
	// map's keys (client keys stop below KeyBit). Adds and approved
	// withdraws fold as deltas (two commuting increments must both
	// land, whichever order they commit); a cas that installed folds as
	// the absolute it wrote. Set and queue methods have no snapshot
	// surface and fold to nothing, as do reads.
	case op.Method == adt.MOpsAdd:
		return write{key: ops.KeyBit | uint64(a[0]), val: a[1], present: true, delta: true}, true
	case op.Method == adt.MOpsWd:
		return write{key: ops.KeyBit | uint64(a[0]), val: -a[1], present: true, delta: true}, true
	case op.Method == adt.MOpsCAS && len(a) >= 3 && op.Ret == a[1]:
		return write{key: ops.KeyBit | uint64(a[0]), val: a[2], present: true}, true
	}
	return write{}, false
}

// resolveLocked rewrites writes in place, in commit order: each delta
// becomes the new absolute value of its counter cell, and an absolute
// write into the typed-counter namespace (an installed cas) resets the
// running total.
func (s *Store) resolveLocked(writes []write) {
	for i := range writes {
		w := &writes[i]
		switch {
		case w.delta:
			w.val += s.deltas[w.key]
			w.delta = false
			s.deltas[w.key] = w.val
		case w.present && w.key&ops.KeyBit != 0:
			s.deltas[w.key] = w.val
		}
	}
}

// Emit observes one rule transition. Cheap by contract: a slice append
// per pushed operation, one Commit per commit.
func (a *Applier) Emit(e core.SinkEvent) {
	switch e.Rule {
	case core.RPush:
		a.mu.Lock()
		a.pending[e.Tx] = append(a.pending[e.Tx], e.Op)
		a.mu.Unlock()
	case core.RUnpush:
		a.mu.Lock()
		buf := a.pending[e.Tx]
		for i := len(buf) - 1; i >= 0; i-- {
			if buf[i].ID == e.Op.ID {
				a.pending[e.Tx] = append(buf[:i], buf[i+1:]...)
				break
			}
		}
		a.mu.Unlock()
	case core.RCmt:
		a.mu.Lock()
		buf := a.pending[e.Tx]
		delete(a.pending, e.Tx)
		a.mu.Unlock()
		a.st.Commit(e.Stamp, buf)
	case core.RAbort:
		a.mu.Lock()
		delete(a.pending, e.Tx)
		a.mu.Unlock()
	}
}
