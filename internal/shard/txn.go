package shard

import (
	"fmt"
	"sort"
)

// Txn is an interactive transaction — the one driver behind the wire's
// Begin/Get/Put/Commit/Abort, at any shard count: branches open lazily
// on the shards the client actually touches, and Commit runs the
// direct path when one shard participated (always, at one shard) or
// the two-phase coordinator otherwise.
//
//	idle --Begin--> open --Get/Put--> open
//	open --Commit--> idle   (substrate commit, durable barrier)
//	open --Abort---> idle   (undo + UNAPP; ErrClientAbort)
//	open --conflict/retry exhaustion/replay divergence--> idle (error)
//	open --Abandon--> idle  (connection drop: same abort, nobody to answer)
//
// On a substrate-level conflict the branch closure is re-entered: it
// first REPLAYS the journal of operations already answered, validating
// that every re-executed Get reproduces the value the client saw. A
// divergence means the client holds stale reads — the transaction
// aborts (ErrReplayDiverged) rather than committing one whose observed
// values never coexisted. This is the interactive analogue of the
// recorder's rule: a transaction certifies only if its operation log
// denotes against the sequential spec.
type Txn struct {
	e        *Engine
	name     string
	branches map[int]*branch
	done     bool
	err      error
}

// Begin opens an interactive transaction.
func (e *Engine) Begin() *Txn {
	return &Txn{
		e:        e,
		name:     fmt.Sprintf("x%d", e.seq.Add(1)),
		branches: make(map[int]*branch),
	}
}

// branchFor returns (opening if needed) the branch on key's home shard.
func (t *Txn) branchFor(key uint64) *branch {
	sid := t.e.router.Shard(key)
	if b, ok := t.branches[sid]; ok {
		return b
	}
	st := t.e.shards[sid]
	b := newBranch(st, t.name, newDecision(), true)
	t.e.enter(st)
	go b.run()
	t.branches[sid] = b
	return b
}

// reap tears down every branch after the abort decision: decide(false)
// unblocks branches parked on their decisions (prepared), abandon
// closes the command channel of branches still parked in their op
// loop, and both paths drain to the Atomic outcome.
func (t *Txn) reap() {
	for _, b := range t.branches {
		b.dec.decide(false)
	}
	for _, b := range t.branches {
		_ = b.abandon()
		t.e.exit(b.st)
		t.e.noteCrash(b.st)
	}
}

// fail records the terminal outcome and reaps every branch.
func (t *Txn) fail(err error) error {
	t.done, t.err = true, err
	t.reap()
	if len(t.branches) > 1 {
		t.e.crossAborts.Add(1)
	}
	return err
}

// Get reads key inside the transaction.
func (t *Txn) Get(key uint64) (int64, bool, error) {
	if t.done {
		return 0, false, fmt.Errorf("shard: transaction %s already finished", t.name)
	}
	b := t.branchFor(key)
	r, err := b.send(cmd{kind: cmdGet, key: key})
	if err != nil {
		return 0, false, t.fail(err)
	}
	return r.val, r.found, nil
}

// Put writes key inside the transaction.
func (t *Txn) Put(key uint64, val int64) error {
	if t.done {
		return fmt.Errorf("shard: transaction %s already finished", t.name)
	}
	b := t.branchFor(key)
	if _, err := b.send(cmd{kind: cmdPut, key: key, val: val}); err != nil {
		return t.fail(err)
	}
	return nil
}

// Commit finishes the transaction: a read-only no-participant commit
// is trivially done; one participant commits directly on its shard;
// several run prepare on every branch and then the engine's
// coordinated commit phase.
func (t *Txn) Commit() error {
	if t.done {
		return fmt.Errorf("shard: transaction %s already finished", t.name)
	}
	if len(t.branches) == 0 {
		t.done = true
		return nil
	}
	if len(t.branches) == 1 {
		var err error
		for _, b := range t.branches {
			err = b.finish(cmdCommit)
			t.e.exit(b.st)
			t.e.noteCrash(b.st)
		}
		t.done, t.err = true, err
		return err
	}
	// Deterministic branch order (by shard) for the commit record.
	sids := make([]int, 0, len(t.branches))
	for sid := range t.branches {
		sids = append(sids, sid)
	}
	sort.Ints(sids)
	branches := make([]*branch, 0, len(sids))
	for _, sid := range sids {
		branches = append(branches, t.branches[sid])
	}
	// Sequenced path: the GSN is pinned now — before prepare — so the
	// commit order is fixed ahead of the decision phase (an interactive
	// session's reads already happened; admission any earlier would
	// stall the sequencer's cursor for the whole client think-time).
	if t.e.seqr != nil {
		tk, err := t.e.seqr.Admit()
		if err != nil {
			return t.fail(err)
		}
		for _, b := range branches {
			if err := b.prepare(); err != nil {
				t.e.seqr.Abort(tk)
				return t.fail(err)
			}
		}
		// seqCommitPrepared owns the branches from here.
		err = t.e.seqCommitPrepared(tk, t.name, branches, nil, nil)
		t.done, t.err = true, err
		if err != nil {
			t.e.crossAborts.Add(1)
			return err
		}
		t.e.crossCommits.Add(1)
		return nil
	}
	for _, b := range branches {
		if err := b.prepare(); err != nil {
			return t.fail(err)
		}
	}
	// commitCross owns the branches from here: it decides, reaps, and
	// moves the gauges on both outcomes.
	err := t.e.commitCross(t.name, branches, nil, nil)
	t.done, t.err = true, err
	if err != nil {
		t.e.crossAborts.Add(1)
		return err
	}
	t.e.crossCommits.Add(1)
	return nil
}

// Abort rolls the transaction back on every participant shard.
func (t *Txn) Abort() error {
	if t.done {
		return t.err
	}
	t.done, t.err = true, ErrClientAbort
	t.reap()
	return nil
}

// Abandon simulates a client vanishing mid-transaction: every open
// branch is torn down and the transaction aborts.
func (t *Txn) Abandon() {
	if t.done {
		return
	}
	t.done, t.err = true, errClientGone
	t.reap()
}

// Retries reports the maximum substrate retry count over the branches.
func (t *Txn) Retries() uint32 {
	var max uint32
	for _, b := range t.branches {
		if b.retries > max {
			max = b.retries
		}
	}
	return max
}

// Participants reports how many shards the transaction has touched.
func (t *Txn) Participants() int { return len(t.branches) }

// Name returns the transaction's engine-assigned name.
func (t *Txn) Name() string { return t.name }
