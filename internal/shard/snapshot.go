package shard

import (
	"errors"

	"pushpull/internal/mvcc"
)

// ErrNoMVCC reports that the engine has no version stores to serve
// snapshots from (certification disabled). Callers fall back to the
// normal transactional read path.
var ErrNoMVCC = errors.New("shard: no snapshot store (certification disabled)")

// Cut is a GSN-consistent multi-shard snapshot: one pinned per-shard
// snapshot each, taken under commitMu. Because every cross-shard
// transaction's branch CMTs complete inside one commitMu critical
// section, no cut can observe a cross-shard transaction on some
// participant shards but not others — the cut is a consistent prefix
// of the Kahn-merged global commit order, i.e. a single global prefix
// of G. Single-shard commits interleave freely, but they order only
// within their own shard's chain, so any cut of per-shard prefixes
// containing them is still consistent.
type Cut = mvcc.Cut

// SnapshotCut pins one snapshot per shard at a GSN-consistent point.
// The caller must Close it. Under the mutex coordinator, commitMu
// alone gives cross-shard atomicity; under the sequencer the cut gate
// does: new batch dispatches block while a cut is pinning (cutters)
// and the cut waits out every in-flight release (releasing), so no cut
// observes an epoch's transaction on some participant shards but not
// others.
func (e *Engine) SnapshotCut() (*Cut, error) {
	if e.stores == nil {
		return nil, ErrNoMVCC
	}
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	if e.seqr != nil {
		e.cutMu.Lock()
		e.cutters++
		for e.releasing > 0 {
			e.cutCond.Wait()
		}
		defer func() {
			e.cutters--
			e.cutCond.Broadcast()
			e.cutMu.Unlock()
		}()
	}
	return mvcc.Pin(e.stores, e.router.Shard), nil
}

// MVCCStats sums the per-shard version store censuses (zero when
// certification is disabled).
func (e *Engine) MVCCStats() mvcc.Stats { return mvcc.SumStats(e.stores) }
