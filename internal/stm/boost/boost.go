// Package boost implements transactional boosting (Herlihy & Koskinen,
// PPoPP'08) — the running example of the paper's Figure 2: transactions
// over linearizable base objects (our concurrent skiplist), made atomic
// by abstract per-key locks and undo logs of inverse operations.
//
// The Figure 2 decomposition, reproduced literally:
//
//	atomic {                     // BEGIN (implicit PULL of shared view)
//	  abstractLock(key).lock()   // ensures PUSH criterion (ii)
//	  old = map.put(key, value)  // APP + PUSH at the linearization point
//	  onAbort:                   //
//	    if (old defined) map.put(key, old)    // UNPUSH via inverse
//	    else             map.remove(key)      // UNPUSH via inverse
//	                                          // ... then UNAPP
//	}                            // CMT, release abstract locks
//
// With a trace.Recorder attached, every operation is certified at its
// linearization point (while the abstract lock is held) as the
// PULL*;APP;PUSH rule sequence, aborts as UNPUSH;UNAPP, and commits as
// CMT — all rule criteria checked by the shadow machine.
package boost

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"pushpull/internal/chaos"
	"pushpull/internal/core"
	"pushpull/internal/locks"
	"pushpull/internal/skiplist"
	"pushpull/internal/spec"
	"pushpull/internal/trace"
)

// ErrConflict reports an abstract-lock timeout (deadlock avoidance);
// Atomic aborts, runs inverses, and retries.
var ErrConflict = errors.New("boost: abstract lock timeout")

// Stats counts runtime-wide activity.
type Stats struct {
	Commits uint64
	Aborts  uint64
	// TypedOps counts executed typed operations (internal/ops codes).
	TypedOps uint64
	// CommuteHits counts abstract-lock acquisitions that JOINED other
	// live holders under a shared commute class — each one is an
	// operation that would have conflicted on an exclusive-only table.
	CommuteHits uint64
}

// Runtime coordinates boosted transactions: the abstract lock table,
// transaction identities, and optional certification.
type Runtime struct {
	lm  *locks.Manager
	ids atomic.Uint64

	// Recorder, when non-nil, certifies all boosted operations on a
	// shadow Push/Pull machine.
	Recorder *trace.Recorder
	// LockSpins bounds acquisition attempts before a deadlock-avoidance
	// abort. Defaults to 256.
	LockSpins int
	// Injector, when non-nil, is consulted at SiteBoostTimeout on every
	// abstract-lock acquisition; injected timeouts surface as ErrConflict
	// aborts, forcing the inverse-log (UNPUSH) recovery path.
	Injector chaos.Injector
	// Retry, when non-nil, bounds retries and shapes backoff in Atomic;
	// an exhausted budget returns ErrRetriesExhausted (wrapped).
	Retry *chaos.RetryPolicy
	// Durable, when non-nil, is the commit-path durability barrier:
	// the write-ahead log is flushed before a commit is acknowledged.
	Durable core.Durable

	commits     atomic.Uint64
	aborts      atomic.Uint64
	typedOps    atomic.Uint64
	commuteHits atomic.Uint64
}

// NewRuntime returns a fresh boosting runtime.
func NewRuntime() *Runtime {
	return &Runtime{lm: locks.NewManager(), LockSpins: 256}
}

// Stats returns commit/abort counts.
func (rt *Runtime) Stats() Stats {
	return Stats{
		Commits:     rt.commits.Load(),
		Aborts:      rt.aborts.Load(),
		TypedOps:    rt.typedOps.Load(),
		CommuteHits: rt.commuteHits.Load(),
	}
}

// LeakCheck asserts, at quiescence, that no abstract lock survived its
// transaction — the goroutine-substrate analogue of
// strategy.Env.LeakCheck, over the same locks.Manager accounting.
// Every Atomic exit path (commit, abort, foreign error) runs
// ReleaseAll, so a non-zero count here means a transaction escaped
// those paths: exactly what a dropped client connection mid-session
// would cause if the server failed to abort it.
func (rt *Runtime) LeakCheck() error {
	if n := rt.lm.HeldCount(); n != 0 {
		return fmt.Errorf("boost: %d abstract lock hold(s) leaked (owners %v)",
			n, rt.lm.HeldOwners())
	}
	return nil
}

// Txn is one boosted transaction attempt.
type Txn struct {
	rt    *Runtime
	owner locks.Owner
	undo  []func()
	hooks []func()
	sess  *trace.Session
}

// onCommit registers fn to run iff the transaction commits, after
// certification succeeds and BEFORE the abstract locks release — the
// window where typed objects fold their pending per-owner effects
// (counter deltas, set support entries) into committed state. Commuting
// transactions fold in whichever order they commit; by construction of
// the commute classes the orders agree.
func (t *Txn) onCommit(fn func()) { t.hooks = append(t.hooks, fn) }

func (t *Txn) lock(k locks.Key) error {
	_, err := t.lockClass(k, locks.Exclusive)
	return err
}

// lockClass acquires k under a commute class (locks.TryAcquireClass),
// spinning LockSpins times before the deadlock-avoidance ErrConflict
// abort. shared reports a commute hit: the acquisition joined other
// live holders instead of conflicting with them.
func (t *Txn) lockClass(k locks.Key, class string) (shared bool, err error) {
	if inj := t.rt.Injector; inj != nil && inj.Fire(chaos.SiteBoostTimeout) {
		return false, ErrConflict
	}
	spins := t.rt.LockSpins
	if spins <= 0 {
		spins = 256
	}
	for i := 0; i < spins; i++ {
		if ok, sh := t.rt.lm.TryAcquireClass(t.owner, k, class); ok {
			return sh, nil
		}
		runtime.Gosched()
	}
	return false, ErrConflict
}

func (t *Txn) certify(obj, method string, args []int64, ret int64) error {
	if t.sess == nil {
		return nil
	}
	if !t.sess.Op(obj, method, args, ret) {
		return fmt.Errorf("boost: certification failed: %w", t.rt.Recorder.Err())
	}
	return nil
}

// Atomic runs fn as a boosted transaction, retrying lock-timeout
// aborts. Any other error aborts (running the undo log) and returns.
func (rt *Runtime) Atomic(name string, fn func(*Txn) error) error {
	for attempt := 0; ; attempt++ {
		t := &Txn{rt: rt, owner: locks.Owner(rt.ids.Add(1))}
		if rt.Recorder != nil {
			t.sess = rt.Recorder.Begin(name)
		}
		err := fn(t)
		if err == nil {
			if t.sess != nil && !t.sess.Commit() {
				rt.lm.ReleaseAll(t.owner)
				return fmt.Errorf("boost: commit certification failed: %w", rt.Recorder.Err())
			}
			for _, h := range t.hooks {
				h()
			}
			rt.lm.ReleaseAll(t.owner)
			_ = core.Barrier(rt.Durable, name)
			rt.commits.Add(1)
			return nil
		}
		// Abort: inverses in reverse order (Figure 2's onAbort cases),
		// then UNAPP on the shadow, then release the abstract locks.
		for i := len(t.undo) - 1; i >= 0; i-- {
			t.undo[i]()
		}
		if t.sess != nil {
			t.sess.Abort()
		}
		rt.lm.ReleaseAll(t.owner)
		rt.aborts.Add(1)
		if !errors.Is(err, ErrConflict) {
			return err
		}
		if rt.Retry != nil {
			if !rt.Retry.Allow(attempt + 1) {
				return fmt.Errorf("boost: %w", chaos.ErrRetriesExhausted)
			}
			rt.Retry.Backoff(attempt + 1)
			continue
		}
		runtime.Gosched()
	}
}

// Map is a boosted hashtable over a linearizable base object (Figure
// 2's BoostedConcurrentHashTable backed by a ConcurrentSkipListMap).
type Map struct {
	rt   *Runtime
	base *skiplist.Map
	// Name is the certification object name (an adt.Map binding).
	Name string
}

// NewMap builds a boosted map over a fresh concurrent skiplist.
func NewMap(rt *Runtime, name string, seed int64) *Map {
	return &Map{rt: rt, base: skiplist.New(seed), Name: name}
}

// Base exposes the underlying linearizable map (quiescent verification).
func (m *Map) Base() *skiplist.Map { return m.base }

// Put maps key→value inside t, returning the previous value (present
// reports whether one existed).
func (m *Map) Put(t *Txn, key, value int64) (old int64, present bool, err error) {
	if err := t.lock(locks.Key{Obj: m.Name, K: key}); err != nil {
		return 0, false, err
	}
	old, present = m.base.Put(key, value)
	if present {
		t.undo = append(t.undo, func() { m.base.Put(key, old) })
	} else {
		t.undo = append(t.undo, func() { m.base.Remove(key) })
	}
	ret := spec.Absent
	if present {
		ret = old
	}
	if err := t.certify(m.Name, "put", []int64{key, value}, ret); err != nil {
		return 0, false, err
	}
	return old, present, nil
}

// Get reads key inside t.
func (m *Map) Get(t *Txn, key int64) (val int64, present bool, err error) {
	if err := t.lock(locks.Key{Obj: m.Name, K: key}); err != nil {
		return 0, false, err
	}
	val, present = m.base.Get(key)
	ret := spec.Absent
	if present {
		ret = val
	}
	if err := t.certify(m.Name, "get", []int64{key}, ret); err != nil {
		return 0, false, err
	}
	return val, present, nil
}

// Remove deletes key inside t, returning the removed value.
func (m *Map) Remove(t *Txn, key int64) (old int64, present bool, err error) {
	if err := t.lock(locks.Key{Obj: m.Name, K: key}); err != nil {
		return 0, false, err
	}
	old, present = m.base.Remove(key)
	if present {
		t.undo = append(t.undo, func() { m.base.Put(key, old) })
	}
	ret := spec.Absent
	if present {
		ret = old
	}
	if err := t.certify(m.Name, "remove", []int64{key}, ret); err != nil {
		return 0, false, err
	}
	return old, present, nil
}

// Set is a boosted set over a linearizable base object (Figure 2's
// BoostedConcurrentSkipList Set).
type Set struct {
	rt   *Runtime
	base *skiplist.Map
	// Name is the certification object name (an adt.Set binding).
	Name string
}

// NewSet builds a boosted set over a fresh concurrent skiplist.
func NewSet(rt *Runtime, name string, seed int64) *Set {
	return &Set{rt: rt, base: skiplist.New(seed), Name: name}
}

// Base exposes the underlying linearizable map.
func (s *Set) Base() *skiplist.Map { return s.base }

// Add inserts key inside t; inserted reports whether it was new.
func (s *Set) Add(t *Txn, key int64) (inserted bool, err error) {
	if err := t.lock(locks.Key{Obj: s.Name, K: key}); err != nil {
		return false, err
	}
	_, existed := s.base.Put(key, 1)
	if !existed {
		t.undo = append(t.undo, func() { s.base.Remove(key) })
	}
	ret := int64(0)
	if !existed {
		ret = 1
	}
	if err := t.certify(s.Name, "add", []int64{key}, ret); err != nil {
		return false, err
	}
	return !existed, nil
}

// Remove deletes key inside t; removed reports whether it was present.
func (s *Set) Remove(t *Txn, key int64) (removed bool, err error) {
	if err := t.lock(locks.Key{Obj: s.Name, K: key}); err != nil {
		return false, err
	}
	_, existed := s.base.Remove(key)
	if existed {
		t.undo = append(t.undo, func() { s.base.Put(key, 1) })
	}
	ret := int64(0)
	if existed {
		ret = 1
	}
	if err := t.certify(s.Name, "remove", []int64{key}, ret); err != nil {
		return false, err
	}
	return existed, nil
}

// Contains reads key's membership inside t.
func (s *Set) Contains(t *Txn, key int64) (present bool, err error) {
	if err := t.lock(locks.Key{Obj: s.Name, K: key}); err != nil {
		return false, err
	}
	present = s.base.Contains(key)
	ret := int64(0)
	if present {
		ret = 1
	}
	if err := t.certify(s.Name, "contains", []int64{key}, ret); err != nil {
		return false, err
	}
	return present, nil
}

// Counter is a boosted counter whose mutators commute abstractly. It
// takes the whole-object abstract lock for reads (get conflicts with
// everything) but only the shared intent side for updates — realized
// here conservatively as the whole-object lock, see DESIGN.md.
type Counter struct {
	rt  *Runtime
	val atomic.Int64
	// Name is the certification object name (an adt.Counter binding).
	Name string
}

// NewCounter builds a boosted counter in the runtime.
func NewCounter(rt *Runtime, name string) *Counter {
	return &Counter{rt: rt, Name: name}
}

// Value reads the counter non-transactionally (quiescent verification).
func (c *Counter) Value() int64 { return c.val.Load() }

// Inc increments inside t.
func (c *Counter) Inc(t *Txn) error {
	if err := t.lock(locks.Key{Obj: c.Name, WholeObject: true}); err != nil {
		return err
	}
	c.val.Add(1)
	t.undo = append(t.undo, func() { c.val.Add(-1) })
	return t.certify(c.Name, "inc", nil, 0)
}

// Get reads inside t.
func (c *Counter) Get(t *Txn) (int64, error) {
	if err := t.lock(locks.Key{Obj: c.Name, WholeObject: true}); err != nil {
		return 0, err
	}
	v := c.val.Load()
	if err := t.certify(c.Name, "get", nil, v); err != nil {
		return 0, err
	}
	return v, nil
}

// Session exposes the transaction's certification session (nil when the
// runtime has no Recorder). Hybrid runtimes feed their non-boosted
// (e.g. HTM) operations into the same session so the whole transaction
// certifies as one Push/Pull transaction.
func (t *Txn) Session() *trace.Session { return t.sess }
