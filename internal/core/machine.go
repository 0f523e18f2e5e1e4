// Package core implements the Push/Pull machine of Section 4: threads
// carrying code, a local stack and a local operation log, reducing
// against a shared global log via the seven forward/backward rules
//
//	APP, UNAPP, PUSH, UNPUSH, PULL, UNPULL, CMT
//
// (Figure 5) together with the structural reductions of the input
// language (Figure 6, folded into lang.StepSet/lang.Fin exactly as the
// atomic machine's BSSTEP folds them).
//
// Every rule checks its side conditions and reports violations as
// *CriterionError values naming the criterion as the paper does
// ("PUSH criterion (ii)"), so algorithms built on the machine are
// serializable by Theorem 5.17 the moment their steps are accepted.
package core

import (
	"fmt"

	"pushpull/internal/lang"
	"pushpull/internal/spec"
)

// Flag is the local-log status flag l of Section 4:
//
//	l ::= npshd c | pshd c | pld
//
// The npshd and pshd forms save the code (and, here, the stack) active
// when the entry was created, so the transaction can rewind.
type Flag int

// Local-log flags.
const (
	// Npshd marks an operation applied locally but not yet shared.
	Npshd Flag = iota
	// Pshd marks an operation present in the global log.
	Pshd
	// Pld marks an operation pulled in from another transaction.
	Pld
)

func (f Flag) String() string {
	switch f {
	case Npshd:
		return "npshd"
	case Pshd:
		return "pshd"
	case Pld:
		return "pld"
	default:
		return "badflag"
	}
}

// LEntry is one local log record (op × l).
type LEntry struct {
	Op   spec.Op
	Flag Flag
	// SavedCode and SavedStack record the thread configuration at APP
	// time for npshd/pshd entries (the paper's "npshd c"), enabling
	// UNAPP and the otx/rewind construction of Section 5. Nil for pld.
	SavedCode  lang.Code
	SavedStack lang.Stack
}

// GEntry is one global log record (op × g), g ::= gUCmt | gCmt.
type GEntry struct {
	Op        spec.Op
	Committed bool
	// Stamp is the commit serial number assigned by CMT (0 while
	// uncommitted): the machine's witness for the commit order used by
	// the serializability checker.
	Stamp uint64
}

// Thread is one machine thread {c, σ, L}.
type Thread struct {
	ID    uint64
	Name  string
	Code  lang.Code
	Stack lang.Stack
	Local []LEntry

	origCode  lang.Code
	origStack lang.Stack
	active    bool
	seq       int
}

// Active reports whether the thread is inside a transaction.
func (t *Thread) Active() bool { return t.active }

// CommitRecord summarizes one committed transaction.
type CommitRecord struct {
	Tx    uint64
	Name  string
	Stamp uint64
	// Ops are the transaction's own operations in local-log order.
	Ops spec.Log
	// Pulled are the operations the transaction pulled in, in local-log
	// order (all necessarily committed by CMT criterion (iii)).
	Pulled spec.Log
	// Body and InitStack reproduce the transaction as begun, so checkers
	// can re-run it atomically (the rewind/otx construction).
	Body      lang.Code
	InitStack lang.Stack
}

// Options configure a Machine.
type Options struct {
	// Mode selects how mover side-conditions are decided; see
	// spec.MoverMode. The default (zero value) is the strict static
	// discipline.
	Mode spec.MoverMode
	// EnforceGray enables the criteria the paper prints in gray
	// ("not strictly necessary"): PUSH criterion (i) on UNPUSH and PULL
	// criterion (iii). Defaults to on via NewMachine.
	EnforceGray bool
	// RecordEvents keeps a rule-application trace (the decompositions of
	// Figures 2 and 7).
	RecordEvents bool
	// OpaqueFragment restricts the machine to the opaque sub-model of
	// Section 6.1: PULL of an uncommitted operation is rejected unless
	// every method still syntactically reachable in the pulling
	// transaction's code is statically known to commute with it ("T will
	// never execute a method m that does not commute with m′").
	// Executions of the restricted machine are opaque by construction.
	OpaqueFragment bool
	// SelfCheck re-verifies the machine invariants (Lemma 5.7 I_LG and
	// the allowed-projection invariants) after every successful rule.
	// Meant for tests; quadratic.
	SelfCheck bool
}

// Machine is the Push/Pull machine state (T, G).
type Machine struct {
	Reg  *spec.Registry
	opts Options

	threads map[uint64]*Thread
	order   []uint64
	global  []GEntry

	// base is the denotation of a compacted committed prefix of the
	// shared log (see Compact); logs replay from it instead of the
	// initial state. baseSet distinguishes "never compacted".
	base    spec.Composite
	baseSet bool

	nextThread  uint64
	commitStamp uint64
	commits     []CommitRecord
	events      []Event

	// hook, when non-nil, observes global-log transitions (see LogHook).
	// Deliberately not cloned: an exploration copy must not re-log.
	hook LogHook
	// sinks observe every rule transition (see EventSink); like the
	// hook, they are not cloned. sinkSeq is the dispatch sequence
	// number; site labels this machine's sink events.
	sinks   []EventSink
	sinkSeq uint64
	site    string
}

// NewMachine returns an empty machine over the given specification
// registry with gray criteria enforced.
func NewMachine(reg *spec.Registry, opts Options) *Machine {
	return &Machine{Reg: reg, opts: opts, threads: make(map[uint64]*Thread)}
}

// DefaultOptions enables gray criteria and event recording in hybrid
// mover mode — the configuration the examples and strategies use.
func DefaultOptions() Options {
	return Options{Mode: spec.MoverHybrid, EnforceGray: true, RecordEvents: true}
}

// Options returns the machine's configuration.
func (m *Machine) Options() Options { return m.opts }

// Spawn creates a new idle thread.
func (m *Machine) Spawn(name string) *Thread {
	m.nextThread++
	t := &Thread{ID: m.nextThread, Name: name, Code: lang.Skip{}, Stack: lang.Stack{}}
	m.threads[t.ID] = t
	m.order = append(m.order, t.ID)
	return t
}

// Thread returns the thread with the given id.
func (m *Machine) Thread(id uint64) (*Thread, bool) {
	t, ok := m.threads[id]
	return t, ok
}

// Threads returns all threads in spawn order.
func (m *Machine) Threads() []*Thread {
	out := make([]*Thread, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.threads[id])
	}
	return out
}

// Begin enters a transaction: the thread must be idle. The stack seeds
// σ (nil for empty).
func (m *Machine) Begin(t *Thread, txn lang.Txn, stack lang.Stack) error {
	if t.active {
		return fmt.Errorf("core: thread %d already in a transaction", t.ID)
	}
	if stack == nil {
		stack = lang.Stack{}
	}
	t.Code = txn.Body
	t.Stack = stack.Clone()
	t.Local = nil
	t.origCode = txn.Body
	t.origStack = stack.Clone()
	t.active = true
	t.seq = 0
	if txn.Name != "" {
		t.Name = txn.Name
	}
	m.record(Event{Rule: RBegin, Thread: t.ID, TxName: t.Name})
	return nil
}

// LocalLog projects the thread's local log L to its operation list (the
// transaction's view of the world, replayed from the initial state).
func (m *Machine) LocalLog(t *Thread) spec.Log {
	out := make(spec.Log, len(t.Local))
	for i, e := range t.Local {
		out[i] = e.Op
	}
	return out
}

// LocalOwn projects ⌊L⌋pshd·npshd: the transaction's own operations in
// local order.
func (m *Machine) LocalOwn(t *Thread) spec.Log {
	var out spec.Log
	for _, e := range t.Local {
		if e.Flag != Pld {
			out = append(out, e.Op)
		}
	}
	return out
}

// LocalByFlag projects ⌊L⌋f.
func (m *Machine) LocalByFlag(t *Thread, f Flag) spec.Log {
	var out spec.Log
	for _, e := range t.Local {
		if e.Flag == f {
			out = append(out, e.Op)
		}
	}
	return out
}

// GlobalLog projects the entire global log G to its operation list.
func (m *Machine) GlobalLog() spec.Log {
	out := make(spec.Log, len(m.global))
	for i, e := range m.global {
		out[i] = e.Op
	}
	return out
}

// GlobalCommitted projects ⌊G⌋gCmt.
func (m *Machine) GlobalCommitted() spec.Log {
	var out spec.Log
	for _, e := range m.global {
		if e.Committed {
			out = append(out, e.Op)
		}
	}
	return out
}

// GlobalEntries returns a copy of the raw global log.
func (m *Machine) GlobalEntries() []GEntry {
	return append([]GEntry(nil), m.global...)
}

// GlobalLen is the raw global log length without copying — for hot
// callers that only need the window size (compaction triggers).
func (m *Machine) GlobalLen() int { return len(m.global) }

// Commits returns the commit records in commit order.
func (m *Machine) Commits() []CommitRecord {
	return append([]CommitRecord(nil), m.commits...)
}

// Retire removes an idle thread from the machine (rule MS_END: a
// thread that has reached skip leaves the thread list). Retiring an
// active thread is an error.
func (m *Machine) Retire(t *Thread) error {
	if t.active {
		return fmt.Errorf("core: cannot retire thread %d inside a transaction", t.ID)
	}
	if _, ok := m.threads[t.ID]; !ok {
		return fmt.Errorf("core: thread %d not in machine", t.ID)
	}
	delete(m.threads, t.ID)
	for i, id := range m.order {
		if id == t.ID {
			m.order = append(m.order[:i:i], m.order[i+1:]...)
			break
		}
	}
	m.record(Event{Rule: REnd, Thread: t.ID, TxName: t.Name})
	return nil
}

// StartState is the state logs replay from: the initial state, or the
// baseline of the last compaction.
func (m *Machine) StartState() spec.Composite {
	if m.baseSet {
		return m.base
	}
	return m.Reg.InitState()
}

// Compact folds the shared log into the machine baseline: every entry
// must be committed and no thread may be inside a transaction. The
// global log, commit records and events are cleared; the denoted state
// becomes the new start state. Shadow machines certifying real STM runs
// (trace.Recorder) compact at every quiescent instant, so replay costs
// stay proportional to the live window, not the whole history.
//
// Callers wanting end-to-end serializability evidence should check the
// window (serial.CheckCommitOrder) before compacting — Compact itself
// refuses only structurally unsafe compaction.
func (m *Machine) Compact() error {
	for _, t := range m.threads {
		if t.active {
			return fmt.Errorf("core: cannot compact with thread %d in a transaction", t.ID)
		}
	}
	for _, e := range m.global {
		if !e.Committed {
			return fmt.Errorf("core: cannot compact with uncommitted %v in G", e.Op)
		}
	}
	state, ok := m.Reg.DenoteFrom(m.StartState(), m.GlobalLog())
	if !ok {
		return fmt.Errorf("core: global log not allowed; refusing to compact")
	}
	m.base = state
	m.baseSet = true
	m.global = nil
	m.commits = nil
	m.events = nil
	return nil
}

// globalIndexOf locates an operation in G by id.
func (m *Machine) globalIndexOf(id uint64) (int, bool) {
	for i, e := range m.global {
		if e.Op.ID == id {
			return i, true
		}
	}
	return 0, false
}

// Clone deep-copies the machine (sharing the immutable registry and
// code values), for exhaustive interleaving exploration.
func (m *Machine) Clone() *Machine {
	c := &Machine{
		Reg:         m.Reg,
		opts:        m.opts,
		threads:     make(map[uint64]*Thread, len(m.threads)),
		order:       append([]uint64(nil), m.order...),
		global:      append([]GEntry(nil), m.global...),
		base:        m.base,
		baseSet:     m.baseSet,
		nextThread:  m.nextThread,
		commitStamp: m.commitStamp,
		site:        m.site,
	}
	c.commits = append(c.commits, m.commits...)
	if m.opts.RecordEvents {
		c.events = append(c.events, m.events...)
	}
	for id, t := range m.threads {
		ct := &Thread{
			ID:       t.ID,
			Name:     t.Name,
			Code:     t.Code,
			Stack:    t.Stack.Clone(),
			Local:    append([]LEntry(nil), t.Local...),
			origCode: t.origCode,
			active:   t.active,
			seq:      t.seq,
		}
		if t.origStack != nil {
			ct.origStack = t.origStack.Clone()
		}
		c.threads[id] = ct
	}
	return c
}
