package backend

import (
	"errors"
	"sync"

	"pushpull/internal/core"
	"pushpull/internal/wal"
)

// GroupCommit coalesces concurrent commit barriers into shared syncs:
// one committer becomes the leader and runs the underlying Durable
// barrier; everyone who arrived before that sync STARTED rides it.
//
// The correctness rule is strict: a waiter arriving at time t is only
// covered by a sync that starts after t — a sync already in flight may
// have ordered its I/O before the waiter's WAL records were appended,
// so the waiter must see a later one. Generation counters (started /
// finished sync indices) encode exactly that: each waiter computes the
// first generation that can cover it and blocks until that generation
// finishes, becoming the leader itself if nobody is syncing.
//
// Under k concurrent committers this turns k barriers into ~2 syncs
// per batch (the in-flight one plus the follow-up), the classic group
// commit amortization; Stats exposes the measured ratio.
type GroupCommit struct {
	d core.Durable

	mu       sync.Mutex
	cond     *sync.Cond
	syncing  bool
	started  uint64 // index of the latest sync that has begun
	finished uint64 // index of the latest sync fully completed
	err      error  // outcome of the latest finished sync

	barriers uint64
	syncs    uint64
}

// NewGroupCommit wraps d. A nil d yields a no-op barrier (the
// non-durable server shape), so callers can wire unconditionally.
func NewGroupCommit(d core.Durable) *GroupCommit {
	g := &GroupCommit{d: d}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// CommitBarrier implements core.Durable.
func (g *GroupCommit) CommitBarrier() error {
	if g.d == nil {
		return nil
	}
	g.mu.Lock()
	g.barriers++
	need := g.started + 1
	for g.finished < need {
		if !g.syncing {
			g.syncing = true
			g.started++
			gen := g.started
			g.syncs++
			g.mu.Unlock()
			err := g.d.CommitBarrier()
			g.mu.Lock()
			g.syncing = false
			g.finished = gen
			g.err = err
			g.cond.Broadcast()
		} else {
			g.cond.Wait()
		}
	}
	err := g.err
	g.mu.Unlock()
	return err
}

// Stats returns (barriers requested, syncs actually run). The
// amortization ratio is barriers/syncs.
func (g *GroupCommit) Stats() (barriers, syncs uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.barriers, g.syncs
}

var _ core.Durable = (*GroupCommit)(nil)

// ForceSync adapts a log into a barrier that forces it whatever its
// sync policy — log force at commit even on a SyncNever log. A crashed
// log acks like CommitBarrier does — the simulated process is dead and
// recovery certifies the durable prefix.
func ForceSync(l *wal.Log) core.Durable { return forceSync{l: l} }

type forceSync struct{ l *wal.Log }

func (f forceSync) CommitBarrier() error {
	if err := f.l.Sync(); err != nil && !errors.Is(err, wal.ErrCrashed) {
		return err
	}
	return nil
}
