// Package trace certifies real (goroutine-concurrent) TM substrates
// against the Push/Pull model. This is the paper's proof methodology
// made mechanical: "1. Demarcate the algorithm into fragments: PUSH,
// PULL, etc. 2. Prove the implementation satisfies the respective
// correctness criteria."
//
// A Recorder owns a shadow Push/Pull machine. Instrumented STMs report
// their logical operations at their linearization points; the recorder
// replays each report as the STM's rule decomposition — with every rule
// criterion checked by internal/core — and collects violations. An STM
// run that completes with zero violations carries a machine-checked
// serializability certificate (Theorem 5.17).
//
// Two reporting styles match the two classes of Section 6:
//
//   - AtomicTxn: commit-time publication (optimistic STMs, simulated
//     HTM, lazy pessimism). The whole transaction is replayed at its
//     commit linearization point: PULL committed view, APP each
//     operation (validating the observed return values), PUSH all, CMT.
//   - Session: eager publication (boosting, irrevocability). Each
//     operation is replayed at its own linearization point (PULL
//     committed view, APP, PUSH), with Abort mapping to the
//     UNPUSH/UNAPP rewind and Commit to CMT.
//
// The recorder serializes internally; callers invoke it while holding
// whatever synchronization defines their linearization point (write
// locks at commit for TL2, the abstract key lock for boosting), so
// recorder order agrees with the substrate's real commit order.
package trace

import (
	"fmt"
	"sync"

	"pushpull/internal/core"
	"pushpull/internal/lang"
	"pushpull/internal/serial"
	"pushpull/internal/spec"
)

// OpRecord is one logical operation observed in a real substrate. The
// JSON tags define the history-file format (internal/history).
type OpRecord struct {
	Obj    string  `json:"obj"`
	Method string  `json:"method"`
	Args   []int64 `json:"args,omitempty"`
	Ret    int64   `json:"ret"`
}

func (o OpRecord) String() string {
	return fmt.Sprintf("%s.%s(%v)=%d", o.Obj, o.Method, o.Args, o.Ret)
}

// Violation is one certification failure: the substrate performed a
// step the model's criteria reject, or observed a value the sequential
// specification contradicts.
type Violation struct {
	Txn string
	Op  OpRecord
	Err error
}

func (v Violation) Error() string {
	return fmt.Sprintf("trace: txn %q at %v: %v", v.Txn, v.Op, v.Err)
}

// Recorder is the shadow Push/Pull machine.
type Recorder struct {
	mu  sync.Mutex
	m   *core.Machine
	reg *spec.Registry

	violations []Violation
	commits    int
	// Journal keeps a record of every certified commit (name + ops in
	// order) for export via JournalEntries / internal/history.
	Journal bool
	journal []JournalEntry

	activeSessions int
	txnCounter     uint64

	// gated pauses new Begins while the live window drains so it can
	// fold (see fold); gateCond is on mu.
	gated    bool
	gateCond *sync.Cond
}

// NewRecorder builds a shadow machine over the registry. Mover mode is
// hybrid (static oracles with dynamic fallback) and gray criteria are
// enforced. The machine keeps no rule history (every quiescent instant
// folds it away): inspect a run through a sink attached before it
// starts (AttachSink, core.EventLog).
func NewRecorder(reg *spec.Registry) *Recorder {
	opts := core.Options{Mode: spec.MoverHybrid, EnforceGray: true}
	r := &Recorder{m: core.NewMachine(reg, opts), reg: reg}
	r.gateCond = sync.NewCond(&r.mu)
	return r
}

// JournalEntry is one committed transaction as certified.
type JournalEntry struct {
	Name string     `json:"name"`
	Ops  []OpRecord `json:"ops"`
}

// JournalEntries returns the certified-commit journal (requires
// Journal=true before the run).
func (r *Recorder) JournalEntries() []JournalEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]JournalEntry(nil), r.journal...)
}

func (r *Recorder) journalAdd(name string, ops []OpRecord) {
	if r.Journal {
		r.journal = append(r.journal, JournalEntry{Name: name, Ops: ops})
	}
}

// Violations returns the certification failures collected so far.
func (r *Recorder) Violations() []Violation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Violation(nil), r.violations...)
}

// Commits returns the number of certified commits.
func (r *Recorder) Commits() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.commits
}

// Err returns a summary error if any violation was recorded.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.violations) == 0 {
		return nil
	}
	return fmt.Errorf("trace: %d violations; first: %w", len(r.violations), r.violations[0].Err)
}

func (r *Recorder) addViolation(txn string, op OpRecord, err error) {
	r.violations = append(r.violations, Violation{Txn: txn, Op: op, Err: err})
}

// codeFor builds the synthetic program replaying ops in order, so CMT
// criterion (i) (fin) holds exactly after the last APP.
func codeFor(ops []OpRecord) lang.Code {
	cs := make([]lang.Code, len(ops))
	for i, o := range ops {
		args := make([]lang.Expr, len(o.Args))
		for j, a := range o.Args {
			args[j] = lang.Lit(a)
		}
		cs[i] = lang.Call{Obj: o.Obj, Method: o.Method, Args: args}
	}
	return lang.SeqOf(cs...)
}

// pullCommitted pulls, in shared-log order, every committed operation
// missing from the thread's local log.
func (r *Recorder) pullCommitted(t *core.Thread, txn string) {
	local := r.m.LocalLog(t)
	have := make(map[uint64]bool, len(local))
	for _, op := range local {
		have[op.ID] = true
	}
	for gi, e := range r.m.GlobalEntries() {
		if !e.Committed || have[e.Op.ID] {
			continue
		}
		if err := r.m.Pull(t, gi); err != nil {
			r.addViolation(txn, OpRecord{Obj: e.Op.Obj, Method: e.Op.Method, Args: e.Op.Args, Ret: e.Op.Ret},
				fmt.Errorf("shadow PULL of committed op failed: %w", err))
		}
	}
}

// applyAndCheck APPlies one observed operation and validates the
// observed return value against the model's local view.
func (r *Recorder) applyAndCheck(t *core.Thread, txn string, rec OpRecord) bool {
	var chosen *lang.Step
	for _, s := range r.m.Steps(t) {
		if s.Call.Obj == rec.Obj && s.Call.Method == rec.Method && sameArgs(s.Args, rec.Args) {
			chosen = &s
			break
		}
	}
	if chosen == nil {
		r.addViolation(txn, rec, fmt.Errorf("no matching step in shadow program"))
		return false
	}
	op, err := r.m.App(t, *chosen)
	if err != nil {
		r.addViolation(txn, rec, fmt.Errorf("shadow APP rejected: %w", err))
		return false
	}
	if op.Ret != rec.Ret {
		r.addViolation(txn, rec, fmt.Errorf(
			"return value mismatch: substrate observed %d, sequential specification requires %d",
			rec.Ret, op.Ret))
		return false
	}
	return true
}

func sameArgs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AtomicTxn certifies a commit-time-published transaction: call it at
// the substrate's commit linearization point with the transaction's
// logical reads and writes in program order. Returns false if the
// transaction failed certification (violations recorded).
func (r *Recorder) AtomicTxn(name string, ops []OpRecord) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.atomicTxnLocked(name, ops)
}

// AtomicTxnFunc runs prepare under the recorder lock and certifies the
// operations it returns. Substrates whose commit linearization point is
// not protected by their own locks (e.g. TL2 read-only commits) put
// their final validation inside prepare, so the certified order agrees
// with the real commit order. prepare returning ok=false means the
// substrate aborted at the last moment; nothing is recorded.
func (r *Recorder) AtomicTxnFunc(name string, prepare func() (ops []OpRecord, ok bool)) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ops, ok := prepare()
	if !ok {
		return false
	}
	return r.atomicTxnLocked(name, ops)
}

func (r *Recorder) atomicTxnLocked(name string, ops []OpRecord) bool {
	r.txnCounter++
	if name == "" {
		name = fmt.Sprintf("txn%d", r.txnCounter)
	}
	t := r.m.Spawn(name)
	defer r.retire(t)
	if err := r.m.Begin(t, lang.Txn{Name: name, Body: codeFor(ops)}, nil); err != nil {
		r.addViolation(name, OpRecord{}, err)
		return false
	}
	okAll := true
	r.pullCommitted(t, name)
	for _, rec := range ops {
		if !r.applyAndCheck(t, name, rec) {
			okAll = false
			break
		}
	}
	if okAll {
		for i := range t.Local {
			if t.Local[i].Flag != core.Npshd {
				continue
			}
			if err := r.m.Push(t, i); err != nil {
				r.addViolation(name, OpRecord{}, fmt.Errorf("shadow PUSH rejected: %w", err))
				okAll = false
				break
			}
		}
	}
	if okAll {
		if _, err := r.m.Commit(t); err != nil {
			r.addViolation(name, OpRecord{}, fmt.Errorf("shadow CMT rejected: %w", err))
			okAll = false
		}
	}
	if !okAll {
		if err := r.m.Abort(t); err != nil {
			r.addViolation(name, OpRecord{}, fmt.Errorf("shadow abort failed: %w", err))
		}
		return false
	}
	r.commits++
	r.journalAdd(name, ops)
	r.fold()
	return true
}

// Session is an eager-publication shadow transaction (boosting style).
type Session struct {
	r           *Recorder
	t           *core.Thread
	name        string
	ops         []OpRecord
	dead        bool
	done        bool
	committedOK bool

	// PullUncommitted lets the session observe other transactions'
	// uncommitted pushes (dependent transactions, §6.5). Pulls that the
	// PULL criteria reject are skipped silently (no dependency taken).
	PullUncommitted bool
}

// Begin opens an eager session. Sessions must end via Commit or Abort.
func (r *Recorder) Begin(name string) *Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	// An over-full window is draining: park until the in-flight
	// sessions finish and the fold runs, so certification cost stays
	// proportional to the window, not the whole history.
	for r.gated {
		r.gateCond.Wait()
	}
	r.txnCounter++
	if name == "" {
		name = fmt.Sprintf("txn%d", r.txnCounter)
	}
	t := r.m.Spawn(name)
	r.activeSessions++
	return &Session{r: r, t: t, name: name}
}

// Op certifies one eagerly-published operation at its linearization
// point: PULL committed view, APP (validating the observed return),
// PUSH. Call while holding the abstract lock that makes the operation's
// linearization atomic.
func (s *Session) Op(obj, method string, args []int64, ret int64) bool {
	return s.op(obj, method, args, ret, pushRequired)
}

// OpDeferred certifies an operation that is applied locally but not yet
// published (APP without PUSH) — buffered HTM stores and dependent
// reads. Commit PUSHes every deferred operation before CMT.
func (s *Session) OpDeferred(obj, method string, args []int64, ret int64) bool {
	return s.op(obj, method, args, ret, pushDeferred)
}

// OpTryEager certifies an operation and attempts to publish it
// immediately; if the PUSH criteria refuse (the operation depends on
// uncommitted foreign effects, §6.5), publication is deferred to commit
// instead of being reported as a violation.
func (s *Session) OpTryEager(obj, method string, args []int64, ret int64) bool {
	return s.op(obj, method, args, ret, pushTry)
}

type pushMode int

const (
	pushRequired pushMode = iota
	pushDeferred
	pushTry
)

// RewindDeferred UNAPPlies unpublished operations from the local-log
// tail: the Figure 7 partial rewind after an HTM abort. It stops at the
// first published (pshd) or pulled entry and returns how many
// operations were rewound.
func (s *Session) RewindDeferred() int {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if s.dead || !s.t.Active() {
		return 0
	}
	n := 0
	for len(s.t.Local) > 0 && s.t.Local[len(s.t.Local)-1].Flag == core.Npshd {
		if err := s.r.m.Unapp(s.t); err != nil {
			s.r.addViolation(s.name, OpRecord{}, fmt.Errorf("shadow UNAPP failed: %w", err))
			s.dead = true
			return n
		}
		n++
	}
	// The rewound continuation (the calls just UNAPPed) is stale: the
	// substrate will now report whatever its replay actually does, so
	// the session program resumes empty.
	s.t.Code = lang.Skip{}
	return n
}

func (s *Session) op(obj, method string, args []int64, ret int64, mode pushMode) bool {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if s.dead {
		return false
	}
	rec := OpRecord{Obj: obj, Method: method, Args: args, Ret: ret}
	s.ops = append(s.ops, rec)
	// Sessions discover their program as the substrate executes: the
	// first op begins the shadow transaction, each later one replaces
	// its (always fully consumed) continuation.
	if len(s.ops) == 1 {
		if err := s.r.m.Begin(s.t, lang.Txn{Name: s.name, Body: codeFor(s.ops)}, nil); err != nil {
			s.r.addViolation(s.name, rec, err)
			s.dead = true
			return false
		}
	} else {
		setThreadCode(s.t, rec)
	}
	if s.PullUncommitted {
		s.r.pullFor(s.t, rec)
	} else {
		s.r.pullCommitted(s.t, s.name)
	}
	if !s.r.applyAndCheck(s.t, s.name, rec) {
		s.dead = true
		return false
	}
	if mode == pushDeferred {
		return true
	}
	// Publish in local order: earlier deferred operations go first (their
	// dependencies may have committed by now). If one of them still
	// cannot be published, the new operation defers too — publishing it
	// ahead would strand the earlier operation behind it in the shared
	// log (PUSH criterion (iii) at commit).
	for i := 0; i < len(s.t.Local); i++ {
		if s.t.Local[i].Flag != core.Npshd {
			continue
		}
		if err := s.r.m.Push(s.t, i); err != nil {
			if mode == pushTry {
				if _, isCrit := err.(*core.CriterionError); isCrit {
					return true // still dependent: whole suffix stays deferred
				}
			}
			s.r.addViolation(s.name, rec, fmt.Errorf("shadow PUSH rejected: %w", err))
			s.dead = true
			return false
		}
	}
	return true
}

// pullFor pulls, in shared-log order, every committed operation plus
// the uncommitted ones that touch the same object and key the pending
// operation rec is about to — the targeted dependency of §6.5: "it may
// PULL in the effects on a … because the transaction is only interested
// in modifying a." Pulling unrelated uncommitted effects would create
// spurious shadow dependencies that CMT criterion (iii) then vetoes.
// Criteria failures on uncommitted entries are not violations: the
// session simply does not take that dependency.
func (r *Recorder) pullFor(t *core.Thread, rec OpRecord) {
	local := r.m.LocalLog(t)
	have := make(map[uint64]bool, len(local))
	for _, op := range local {
		have[op.ID] = true
	}
	for gi, e := range r.m.GlobalEntries() {
		if have[e.Op.ID] || e.Op.Tx == t.ID {
			continue
		}
		if !e.Committed {
			sameObj := e.Op.Obj == rec.Obj
			sameKey := len(e.Op.Args) > 0 && len(rec.Args) > 0 && e.Op.Args[0] == rec.Args[0]
			if !sameObj || !sameKey {
				continue
			}
			// Never depend on an effect-free uncommitted operation (a
			// read): it adds nothing to the local view but would chain
			// this transaction's commit to the reader's fate — and break
			// the shadow if the reader rewinds it (CMT criterion (iii)).
			view := r.m.LocalLog(t)
			if pre, ok := r.reg.DenoteFrom(r.m.StartState(), view); ok {
				if post, ok := r.reg.ApplyOp(pre, e.Op); ok && pre.Eq(post) {
					continue
				}
			}
		}
		_ = r.m.Pull(t, gi) // rejected pulls are skipped
	}
}

// Commit certifies the session's CMT. It is idempotent: a second call
// reports the first outcome (hybrid runtimes commit the session inside
// their serialized commit section; the owning layer's later call is a
// no-op).
func (s *Session) Commit() bool {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if s.done {
		return s.committedOK
	}
	s.committedOK = s.commitLocked()
	return s.committedOK
}

func (s *Session) commitLocked() bool {
	defer s.end()
	if s.dead {
		return false
	}
	if s.t.Active() {
		// Publish any deferred operations first (CMT criterion (ii)).
		for i := 0; i < len(s.t.Local); i++ {
			if s.t.Local[i].Flag != core.Npshd {
				continue
			}
			if err := s.r.m.Push(s.t, i); err != nil {
				s.r.addViolation(s.name, OpRecord{}, fmt.Errorf("shadow deferred PUSH rejected: %w", err))
				_ = s.r.m.Abort(s.t)
				return false
			}
		}
		if _, err := s.r.m.Commit(s.t); err != nil {
			s.r.addViolation(s.name, OpRecord{}, fmt.Errorf("shadow CMT rejected: %w", err))
			_ = s.r.m.Abort(s.t)
			return false
		}
	} else if len(s.ops) > 0 {
		s.r.addViolation(s.name, OpRecord{}, fmt.Errorf("session thread idle at commit"))
		return false
	} else {
		// Empty transaction: nothing to certify.
		s.r.commits++
		return true
	}
	s.r.commits++
	s.r.journalAdd(s.name, s.ops)
	return true
}

// Abort certifies the session's rewind: UNPUSH (the substrate runs its
// inverses here) and UNAPP for every operation, tail first.
func (s *Session) Abort() {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if s.done {
		return
	}
	defer s.end()
	if s.t.Active() {
		if err := s.r.m.Abort(s.t); err != nil {
			s.r.addViolation(s.name, OpRecord{}, fmt.Errorf("shadow abort (UNPUSH/UNAPP) failed: %w", err))
		}
	}
}

func (s *Session) end() {
	s.dead = true
	s.done = true
	s.r.activeSessions--
	s.r.retire(s.t)
	s.r.fold()
}

// setThreadCode installs the next discovered call as the running shadow
// transaction's continuation. Session threads always consume their
// whole continuation per op (the code is Skip between ops, except right
// after RewindDeferred, whose stale calls are likewise replaced).
func setThreadCode(t *core.Thread, rec OpRecord) {
	args := make([]lang.Expr, len(rec.Args))
	for j, a := range rec.Args {
		args[j] = lang.Lit(a)
	}
	t.Code = lang.Call{Obj: rec.Obj, Method: rec.Method, Args: args}
}

func (r *Recorder) retire(t *core.Thread) {
	if t.Active() {
		_ = r.m.Abort(t)
	}
	_ = r.m.Retire(t)
}

// gateEntries is the global-log length at which new Begins park. An
// open session keeps the window from folding (its local view replays
// from the baseline), and under steady concurrency every instant can
// have one open; without the gate the window, and every commit's
// replay over it, would grow without bound.
const gateEntries = 32

// fold runs at every quiescent instant (no session open): it checks
// the committed window's commit-order serializability from the state
// the previous fold reached, then folds it into the machine baseline.
// Serializability is closed under prefixes, so certifying each window
// from its predecessor's end certifies the whole history — the
// incremental form of the Theorem 5.17 check.
func (r *Recorder) fold() {
	if r.activeSessions > 0 {
		if r.m.GlobalLen() >= gateEntries {
			r.gated = true
		}
		return
	}
	if r.gated {
		r.gated = false
		r.gateCond.Broadcast()
	}
	if r.m.GlobalLen() == 0 {
		return
	}
	if rep := serial.CheckCommitOrder(r.m); !rep.Serializable {
		r.addViolation("window", OpRecord{}, fmt.Errorf("window not serializable: %s", rep.Reason))
		return
	}
	// Compact refuses only a window an aborting session left uncommitted
	// entries in; the next quiescent instant retries.
	_ = r.m.Compact()
}

// FinalCheck verifies the remaining window and returns the overall
// verdict: serializability of every certified commit, the machine
// invariants, and all collected violations.
func (r *Recorder) FinalCheck() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rep := serial.CheckCommitOrder(r.m); !rep.Serializable {
		return fmt.Errorf("trace: final window not serializable: %s", rep.Reason)
	}
	if err := r.m.Verify(); err != nil {
		return fmt.Errorf("trace: machine invariants: %w", err)
	}
	if len(r.violations) > 0 {
		return fmt.Errorf("trace: %d violations; first: %w", len(r.violations), r.violations[0].Err)
	}
	return nil
}

// Machine exposes the shadow machine (for tests and reporting).
func (r *Recorder) Machine() *core.Machine { return r.m }

// AttachWAL installs a write-ahead hook on the shadow machine: every
// certified global-log transition (PUSH, UNPUSH, CMT, rollback) is
// logged at the moment the rule fires. The recorder's own mutex
// serializes those transitions in real commit order, so the WAL's
// record order is a faithful serialization witness.
func (r *Recorder) AttachWAL(h core.LogHook) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m.SetLogHook(h)
}

// AttachSink registers a telemetry subscriber on the shadow machine:
// every rule transition the certification replays — BEGIN, APP, PUSH,
// PULL, CMT, the rewind rules, the abort mark — is delivered in rule
// order. The machine's dispatch point fires the WAL hook first, then
// sinks, and the recorder mutex serializes both in real commit order,
// so metrics and the WAL observe one agreed sequence.
func (r *Recorder) AttachSink(s core.EventSink) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m.AddEventSink(s)
}

// SetSite labels the shadow machine's emitted events with the
// substrate name (SinkEvent.Site), so one sink can aggregate a whole
// campaign per substrate.
func (r *Recorder) SetSite(site string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m.SetSite(site)
}
