package shard

import (
	"errors"
	"fmt"
	"sync"

	"pushpull/internal/backend"
	typedops "pushpull/internal/ops"
)

// A branch is one shard's slice of a transaction: a dedicated
// goroutine running the shard backend's Atomic whose closure blocks on
// a channel waiting for the next operation. The substrates' Atomic
// functions own retry/undo/locking and expect the whole transaction
// body as one closure, so a transaction that stays live across client
// round trips (an interactive Txn) or across a coordinator's
// prepare/decide stage has to park inside that closure.
//
// In Push/Pull terms: feeding an operation to a branch APPs and PUSHes
// it on the participant shard's machine; cmdPrepare ends the branch's
// op stream with every operation pushed — the shard is prepared, its
// effects visible-but-uncommitted in the shard log. The branch then
// blocks until the coordinator's decision: commit returns nil so the
// substrate runs its CMT (flipping the branch's entries committed,
// journaled in the shard WAL, certified by the shard's shadow
// machine), abort returns errGlobalAbort so the substrate rewinds via
// UNPUSH/UNAPP. Substrate-level conflict retries re-enter the closure,
// which first replays the journal of already-answered operations.

// Terminal branch/transaction errors.
var (
	// ErrClientAbort: the client asked to roll back; foreign to every
	// substrate so Atomic aborts exactly once and returns it.
	ErrClientAbort = errors.New("shard: client abort")
	// errClientGone: the branch was abandoned mid-transaction.
	errClientGone = errors.New("shard: client disconnected mid-transaction")
	// ErrReplayDiverged: a conflict retry could not reproduce the reads
	// already answered to an interactive client.
	ErrReplayDiverged = errors.New("shard: interactive replay diverged (answered reads went stale)")
	// errGlobalAbort: the cross-shard coordinator decided abort; the
	// branch's substrate transaction rewinds.
	errGlobalAbort = errors.New("shard: cross-shard transaction aborted by coordinator")
)

type cmdKind int

const (
	cmdGet cmdKind = iota
	cmdPut
	cmdTyped   // typed ADT operation; cmd.opKind discriminates
	cmdCommit  // direct single-branch commit (no coordinator)
	cmdAbort   // client-requested rollback
	cmdPrepare // end of op stream; block for the coordinator's decision
)

type cmd struct {
	kind   cmdKind
	opKind OpKind // cmdTyped only
	key    uint64
	val    int64
	arg    int64 // second typed operand (CAS: val=expect, arg=new)
	idx    int   // result index (one-shot feeding)
}

type reply struct {
	val      int64
	found    bool
	commuted bool
	idx      int
}

// journalEntry is one answered operation, kept for conflict replay and
// (puts) for the coordinator's roll-forward write-set.
type journalEntry struct {
	kind     cmdKind
	opKind   OpKind // cmdTyped only
	key      uint64
	val      int64 // put argument / first typed operand
	arg      int64 // second typed operand
	retVal   int64 // answered get/typed value
	retFound bool
	idx      int
}

// decision is one branch's commit/abort gate. Every branch owns its
// own decision so the release order is per branch: the mutex
// coordinator decides all of a transaction's branches together, while
// the sequencer's shard executors decide each branch at its queue
// position — that per-shard release order IS the GSN order. decide is
// idempotent (first caller wins), so a commit-path release and an
// engine-teardown abort can race without a double-close.
type decision struct {
	once   sync.Once
	ch     chan struct{}
	commit bool
}

func newDecision() *decision { return &decision{ch: make(chan struct{})} }

// state reports (decided, commit) without blocking.
func (d *decision) state() (bool, bool) {
	select {
	case <-d.ch:
		return true, d.commit
	default:
		return false, false
	}
}

// decide publishes the outcome; later calls are no-ops.
func (d *decision) decide(commit bool) {
	d.once.Do(func() {
		d.commit = commit
		close(d.ch)
	})
}

// branch is one shard's open slice of a transaction.
type branch struct {
	st   *shardState
	name string
	dec  *decision
	// validate re-checks replayed reads against answered values
	// (interactive sessions: the client has seen them). One-shot
	// transactions leave it false — nothing is reported before the
	// global commit, so a retry may legitimately observe fresh values.
	// Post-decision-commit replays never validate: the global commit is
	// final and the branch must roll forward.
	validate bool

	cmds     chan cmd
	replies  chan reply
	prepared chan struct{} // closed by the body when every op is pushed
	done     chan error    // Atomic's outcome; buffered so run never blocks

	// Written by the body goroutine; read by the coordinator only after
	// done is received (happens-before via the channel).
	journal      []journalEntry
	preparedSent bool
	pending      *cmd
	attempts     uint32
	retries      uint32

	// finished/errv cache the consumed done outcome so every caller
	// path (send, finish, wait, abandon) observes it exactly once.
	finished bool
	errv     error
}

func newBranch(st *shardState, name string, dec *decision, validate bool) *branch {
	return &branch{
		st: st, name: name, dec: dec, validate: validate,
		cmds:     make(chan cmd),
		replies:  make(chan reply),
		prepared: make(chan struct{}),
		done:     make(chan error, 1),
	}
}

// run executes the branch transaction; the outcome lands on done.
func (b *branch) run() {
	err := b.st.be.Atomic(b.name, b.body)
	if b.attempts > 0 {
		b.retries = b.attempts - 1
	}
	b.done <- err
}

func (b *branch) body(v view) error {
	b.attempts++
	decided, committed := false, false
	if b.dec != nil {
		decided, committed = b.dec.state()
	}
	// Validated replay: re-execute everything already answered. After a
	// global commit decision the validation is waived — the decision is
	// final, so the branch re-applies its writes and commits regardless
	// of what its re-executed reads observe (roll forward).
	for i := range b.journal {
		j := &b.journal[i]
		switch j.kind {
		case cmdGet:
			val, found, err := v.Get(j.key)
			if err != nil {
				return err
			}
			if b.validate && !(decided && committed) &&
				(val != j.retVal || found != j.retFound) {
				return ErrReplayDiverged
			}
		case cmdPut:
			if err := v.Put(j.key, j.val); err != nil {
				return err
			}
		case cmdTyped:
			ret, _, err := typedDo(v, j.opKind, j.key, j.val, j.arg)
			if err != nil {
				return err
			}
			// The roll-forward write-set derives from the executed
			// answer (a CAS resolves against what this attempt read),
			// so the journal tracks the latest attempt's value.
			j.retVal = ret
		}
	}
	if b.preparedSent {
		return b.await()
	}
	for {
		if b.pending == nil {
			c, ok := <-b.cmds
			if !ok {
				return errClientGone
			}
			b.pending = &c
		}
		// pending survives substrate retries: a command consumed from
		// the channel is either answered or carried into the next
		// attempt, never dropped.
		switch b.pending.kind {
		case cmdCommit:
			return nil
		case cmdAbort:
			return ErrClientAbort
		case cmdPrepare:
			b.preparedSent = true
			close(b.prepared)
			return b.await()
		case cmdGet:
			val, found, err := v.Get(b.pending.key)
			if err != nil {
				return err
			}
			b.journal = append(b.journal, journalEntry{
				kind: cmdGet, key: b.pending.key,
				retVal: val, retFound: found, idx: b.pending.idx,
			})
			idx := b.pending.idx
			b.pending = nil
			b.replies <- reply{val: val, found: found, idx: idx}
		case cmdPut:
			if err := v.Put(b.pending.key, b.pending.val); err != nil {
				return err
			}
			b.journal = append(b.journal, journalEntry{
				kind: cmdPut, key: b.pending.key, val: b.pending.val, idx: b.pending.idx,
			})
			idx := b.pending.idx
			b.pending = nil
			b.replies <- reply{idx: idx}
		case cmdTyped:
			ret, commuted, err := typedDo(v, b.pending.opKind, b.pending.key, b.pending.val, b.pending.arg)
			if err != nil {
				return err
			}
			b.journal = append(b.journal, journalEntry{
				kind: cmdTyped, opKind: b.pending.opKind,
				key: b.pending.key, val: b.pending.val, arg: b.pending.arg,
				retVal: ret, idx: b.pending.idx,
			})
			idx := b.pending.idx
			b.pending = nil
			b.replies <- reply{val: ret, found: true, commuted: commuted, idx: idx}
		}
	}
}

// typedDo routes one typed ADT operation through the backend's typed
// surface.
func typedDo(v view, k OpKind, key uint64, a, b int64) (ret int64, commuted bool, err error) {
	tv, ok := v.(backend.TypedView)
	if !ok {
		return 0, false, fmt.Errorf("shard: op %v: typed operations unsupported on this substrate", k)
	}
	return tv.Typed(k, key, a, b)
}

// await blocks for the coordinator's decision: nil commits the
// substrate transaction, errGlobalAbort rewinds it.
func (b *branch) await() error {
	<-b.dec.ch
	if b.dec.commit {
		return nil
	}
	return errGlobalAbort
}

// puts extracts the branch's journaled write-set in op order — the
// coordinator's roll-forward evidence. Typed operations journal their
// logical effect (wd as a negative WAdd, a resolved CAS as the WPut it
// installed, reads nothing), so a redo replays the operation rather
// than racing concurrent writers to a final value.
func (b *branch) puts() []KV {
	var out []KV
	for _, j := range b.journal {
		switch j.kind {
		case cmdPut:
			out = append(out, KV{Key: j.key, Val: j.val, Method: typedops.WPut})
		case cmdTyped:
			m, val, write, ok := typedops.Effect(j.opKind, j.val, j.arg, j.retVal)
			if !ok || !write {
				continue // reads, and ops barred from cross-shard txns
			}
			out = append(out, KV{Key: j.key, Val: val, Method: m})
		}
	}
	return out
}

// abandon tears the branch down from the caller side: closing cmds
// aborts the transaction; the drain loop swallows any reply in flight
// and waits for the outcome.
func (b *branch) abandon() error {
	if b.finished {
		return b.errv
	}
	close(b.cmds)
	for {
		select {
		case <-b.replies:
		case err := <-b.done:
			b.finished, b.errv = true, err
			return err
		}
	}
}

// wait blocks for (or returns the cached) Atomic outcome.
func (b *branch) wait() error {
	if !b.finished {
		b.errv = <-b.done
		b.finished = true
	}
	return b.errv
}

// post delivers one command, or reports the branch's death if its
// Atomic already returned (the disciplined protocol never does this,
// but selecting on done turns a protocol slip into an error instead of
// a hang).
func (b *branch) post(c cmd) error {
	if b.finished {
		return b.errv
	}
	select {
	case b.cmds <- c:
		return nil
	case err := <-b.done:
		b.finished, b.errv = true, err
		return err
	}
}

// send feeds one command, answering (reply, nil) for ops; a (zero,
// err) return means the branch died processing it (the error is
// Atomic's outcome and the branch goroutine is finished).
func (b *branch) send(c cmd) (reply, error) {
	if err := b.post(c); err != nil {
		return reply{}, err
	}
	select {
	case r := <-b.replies:
		return r, nil
	case err := <-b.done:
		b.finished, b.errv = true, err
		return reply{}, err
	}
}

// finish feeds a terminal command (commit or abort) and returns
// Atomic's outcome.
func (b *branch) finish(kind cmdKind) error {
	if err := b.post(cmd{kind: kind}); err != nil {
		return err
	}
	return b.wait()
}

// prepare feeds cmdPrepare and blocks until the branch is prepared
// (every op pushed, body parked on the decision) or dead. A nil return
// means prepared; a non-nil one is Atomic's terminal outcome.
func (b *branch) prepare() error {
	if err := b.post(cmd{kind: cmdPrepare}); err != nil {
		return err
	}
	select {
	case <-b.prepared:
		return nil
	case err := <-b.done:
		b.finished, b.errv = true, err
		return err
	}
}
