// Package mvcc is the multi-version store under the serving
// substrates: the committed global log G, materialized per key.
//
// Every certified substrate dispatches one CMT event per committed
// transaction, with its monotonic commit stamp, through the
// core.EventSink seam. An Applier on that seam hands each committed
// transaction's operations to Store.Commit, which appends one version
// per written key (value, commit seq, prev pointer); a follower's
// replica calls the same Commit for each transaction it replays from
// the shipped WAL. Nothing is written that was not pushed and committed
// through the eight rules.
//
// A Snapshot pins a commit watermark and serves reads at it: in
// Push/Pull terms a PULL-only transaction, which pulls a committed
// prefix of G and never pushes, so it never conflicts, validates or
// aborts. A Cut is one such transaction over one store per shard; its
// reads are certified against each store's independent certifier
// before they are released. Garbage collection truncates version
// chains below the oldest pinned snapshot.
package mvcc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pushpull/internal/spec"
)

// Mode selects the key semantics of the substrate the store shadows.
type Mode int

const (
	// ModeRegister mirrors the word substrates (tl2, pess, htmsim,
	// dep): keys map onto a register array modulo Keys, every slot
	// exists (default zero), writes are total.
	ModeRegister Mode = iota
	// ModeMap mirrors the boosted substrates (boost, hybrid): full
	// uint64 keys with presence semantics (put/remove).
	ModeMap
)

// ModeFor returns the store mode matching a substrate name.
func ModeFor(substrate string) Mode {
	switch substrate {
	case "boost", "hybrid":
		return ModeMap
	default:
		return ModeRegister
	}
}

// write is one committed mutation: key (a register address in
// ModeRegister, a full key in ModeMap), the value, and whether the key
// is present afterwards (false = map remove, a tombstone). delta marks
// a typed-counter increment whose val is a relative amount rather than
// an absolute value; Commit resolves it before the write reaches the
// chains or the certifier (both are absolute-only).
type write struct {
	key     uint64
	val     int64
	present bool
	delta   bool
}

// Observer receives gauge deltas (version count, open snapshots) so a
// metrics suite can export pushpull_mvcc_* without polling the store.
type Observer interface {
	MVCCVersionsAdd(delta int64)
	MVCCSnapshotsAdd(delta int64)
}

// version is one link of a key's chain, newest first.
type version struct {
	seq     uint64
	val     int64
	present bool
	prev    *version
}

// gcEvery bounds how many versions may accumulate between truncation
// sweeps; a sweep walks every chain, so amortize it.
const gcEvery = 512

const noPin = ^uint64(0)

// Store holds one version chain per key, the pin table of open
// snapshots, the independent read certifier, and the running totals of
// typed counters. All methods are safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	mode   Mode
	keys   uint64 // register modulus (ModeRegister only)
	chains map[uint64]*version
	cert   *shadow
	deltas map[uint64]int64 // typed counter cell -> committed value

	watermark uint64         // highest commit seq applied
	versions  int64          // live version count
	truncated uint64         // versions dropped by GC, cumulative
	pins      map[uint64]int // watermark -> open snapshot count
	minPin    uint64         // cached min of pins, noPin when empty
	snaps     int            // open snapshots
	gcDebt    int64          // versions appended since last sweep

	obs Observer
}

// NewStore builds an empty store. keys is the register modulus for
// ModeRegister (ignored for ModeMap).
func NewStore(mode Mode, keys int) *Store {
	if keys <= 0 {
		keys = 1
	}
	return &Store{
		mode:   mode,
		keys:   uint64(keys),
		chains: make(map[uint64]*version),
		cert:   newShadow(mode),
		deltas: make(map[uint64]int64),
		pins:   make(map[uint64]int),
		minPin: noPin,
	}
}

// SetObserver attaches the gauge observer. Call before serving.
func (s *Store) SetObserver(o Observer) { s.obs = o }

// slot maps a service key to its chain key under the store's mode.
func (s *Store) slot(key uint64) uint64 {
	if s.mode == ModeRegister {
		return key % s.keys
	}
	return key
}

// Commit folds one committed transaction's operations at commit seq:
// project them onto writes, resolve counter deltas, append to the
// certifier, then to the chains. Certifier first: the append may cross
// the GC-debt threshold, and the sweep trims the certifier to this
// seq. Seqs are commit stamps, strictly increasing; a regression means
// the commit-order witness is broken, so fail loudly.
func (s *Store) Commit(seq uint64, ops []spec.Op) {
	var writes []write
	for _, op := range ops {
		if w, ok := translate(s.mode, op); ok {
			writes = append(writes, w)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq <= s.watermark {
		panic(fmt.Sprintf("mvcc: commit seq %d not above watermark %d (commit order witness broken)", seq, s.watermark))
	}
	s.resolveLocked(writes)
	s.cert.append(seq, writes)
	for _, w := range writes {
		s.chains[w.key] = &version{seq: seq, val: w.val, present: w.present, prev: s.chains[w.key]}
	}
	n := int64(len(writes))
	s.versions += n
	s.gcDebt += n
	s.watermark = seq
	if s.obs != nil && n != 0 {
		s.obs.MVCCVersionsAdd(n)
	}
	if s.gcDebt >= gcEvery {
		s.gcLocked()
	}
}

// Snapshot pins the current watermark and returns a handle serving
// reads at it. The caller must Close it to release the pin (and let
// the garbage collector advance).
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.watermark
	s.pins[w]++
	if w < s.minPin {
		s.minPin = w
	}
	s.snaps++
	if s.obs != nil {
		s.obs.MVCCSnapshotsAdd(1)
	}
	return &Snapshot{st: s, w: w}
}

// unpin releases one snapshot at watermark w.
func (s *Store) unpin(w uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pins[w]--
	if s.pins[w] <= 0 {
		delete(s.pins, w)
		if w == s.minPin {
			s.minPin = noPin
			for p := range s.pins {
				if p < s.minPin {
					s.minPin = p
				}
			}
		}
	}
	s.snaps--
	if s.obs != nil {
		s.obs.MVCCSnapshotsAdd(-1)
	}
	// A closing snapshot may have been the oldest pin holding history
	// back; sweep if enough garbage accrued while it was open.
	if s.gcDebt >= gcEvery {
		s.gcLocked()
	}
}

// gcBoundLocked is the truncation watermark: nothing below the oldest
// pinned snapshot (or the head, when no snapshot is open) is
// reachable by any current or future reader.
func (s *Store) gcBoundLocked() uint64 {
	if s.minPin != noPin {
		return s.minPin
	}
	return s.watermark
}

// gcLocked truncates every chain below the GC bound: the newest
// version at-or-below the bound is kept (it is the visible version for
// the oldest possible reader), everything older is cut. Map-mode
// chains whose only surviving version is a tombstone are dropped
// entirely.
func (s *Store) gcLocked() {
	bound := s.gcBoundLocked()
	var dropped int64
	for k, head := range s.chains {
		// Find the first (newest) version at or below the bound.
		v := head
		for v != nil && v.seq > bound {
			v = v.prev
		}
		if v == nil {
			continue // whole chain above the bound: all reachable
		}
		for p := v.prev; p != nil; p = p.prev {
			dropped++
		}
		v.prev = nil
		if v == head && s.mode == ModeMap && !v.present {
			// The chain is a single unreferenced tombstone: the key is
			// absent at every reachable watermark, same as no chain.
			delete(s.chains, k)
			dropped++
		}
	}
	s.versions -= dropped
	s.truncated += uint64(dropped)
	s.gcDebt = 0
	if s.obs != nil && dropped != 0 {
		s.obs.MVCCVersionsAdd(-dropped)
	}
	// The certifier trims to the same bound, so the two folds stay
	// certifiable over exactly the same span.
	s.cert.trimTo(bound)
}

// TruncateNow forces a GC sweep (tests and shutdown).
func (s *Store) TruncateNow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked()
}

// Stats is a point-in-time census of the store.
type Stats struct {
	Versions      int64  `json:"versions"`
	Chains        int    `json:"chains"`
	SnapshotsOpen int    `json:"snapshots_open"`
	Watermark     uint64 `json:"watermark"`
	Truncated     uint64 `json:"truncated"`
}

// StoreStats returns the census.
func (s *Store) StoreStats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Versions:      s.versions,
		Chains:        len(s.chains),
		SnapshotsOpen: s.snaps,
		Watermark:     s.watermark,
		Truncated:     s.truncated,
	}
}

// SumStats adds up the censuses of per-shard stores; the watermark is
// the highest one (per-shard stamps are independent sequences).
func SumStats(stores []*Store) Stats {
	var out Stats
	for _, st := range stores {
		s := st.StoreStats()
		out.Versions += s.Versions
		out.Chains += s.Chains
		out.SnapshotsOpen += s.SnapshotsOpen
		out.Truncated += s.Truncated
		out.Watermark = max(out.Watermark, s.Watermark)
	}
	return out
}

// Snapshot is a pinned read view: a PULL-only transaction over the
// committed prefix of G at watermark w. Reads never block writers
// beyond the store's RLock and can never abort.
type Snapshot struct {
	st     *Store
	w      uint64
	closed atomic.Bool
}

// Watermark returns the pinned commit seq.
func (sn *Snapshot) Watermark() uint64 { return sn.w }

// Get reads key at the pinned watermark. In ModeRegister every key is
// found (registers default to zero); in ModeMap found reflects map
// presence at the watermark.
func (sn *Snapshot) Get(key uint64) (int64, bool) {
	s := sn.st
	s.mu.RLock()
	defer s.mu.RUnlock()
	v := s.chains[s.slot(key)]
	for v != nil && v.seq > sn.w {
		v = v.prev
	}
	if v == nil || !v.present {
		return 0, s.mode == ModeRegister // registers default to zero
	}
	return v.val, true
}

// Fold visits every key present at the pinned watermark. ModeRegister
// visits only slots that have been written (unwritten slots are zero).
// Iteration order is unspecified.
func (sn *Snapshot) Fold(fn func(key uint64, val int64)) {
	s := sn.st
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, head := range s.chains {
		v := head
		for v != nil && v.seq > sn.w {
			v = v.prev
		}
		if v != nil && v.present {
			fn(k, v.val)
		}
	}
}

// Close releases the pin. Idempotent.
func (sn *Snapshot) Close() {
	if !sn.closed.Swap(true) {
		sn.st.unpin(sn.w)
	}
}
