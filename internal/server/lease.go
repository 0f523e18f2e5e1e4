package server

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Lease is the serving permit behind lease-fenced failover: a primary
// may acknowledge commits only while it holds an unexpired lease, and
// a supervisor grants the successor's lease (at the next epoch) only
// after the predecessor's must have expired on ANY clock within the
// configured skew. The two rules together give the sweep its fencing
// invariant — at most one primary acks commits under each lease epoch
// — without the primary and supervisor ever needing to agree on more
// than bounded clock drift.
//
// The zero epoch means "never granted": a replicated server without a
// supervisor runs unleased and acks freely (the epoch fence still
// protects it). Once a lease has been granted, expiry is enforced — a
// partitioned primary whose renewals stop goes silent by itself.
type Lease struct {
	mu    sync.Mutex
	now   func() time.Time
	ttl   time.Duration
	epoch uint64
	until time.Time
}

// NewLease builds an ungranted lease with the given TTL. now is the
// injectable clock (nil means time.Now) — sweeps drive it manually so
// a 50-seed campaign does not sleep through real lease windows.
func NewLease(ttl time.Duration, now func() time.Time) *Lease {
	if now == nil {
		now = time.Now
	}
	if ttl <= 0 {
		ttl = 50 * time.Millisecond
	}
	return &Lease{now: now, ttl: ttl}
}

// TTL returns the lease duration.
func (l *Lease) TTL() time.Duration { return l.ttl }

// Grant installs (or renews) the lease at epoch: a higher epoch takes
// over, the held epoch renews, a lower one is a stale grant and fails.
func (l *Lease) Grant(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch < l.epoch {
		return fmt.Errorf("server: stale lease grant: epoch %d, holding %d", epoch, l.epoch)
	}
	l.epoch = epoch
	l.until = l.now().Add(l.ttl)
	return nil
}

// Renew extends the currently held lease; it reports false (and does
// not extend) when the lease already expired — a renewal arriving
// after expiry must not resurrect the old permit, because a successor
// may have been granted the next epoch in the meantime.
func (l *Lease) Renew() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.epoch == 0 || l.now().After(l.until) {
		return false
	}
	l.until = l.now().Add(l.ttl)
	return true
}

// Expire force-expires the lease (a deposed primary being told, or a
// test driving the window directly).
func (l *Lease) Expire() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.epoch != 0 {
		l.until = l.now().Add(-time.Nanosecond)
	}
}

// Epoch returns the held lease epoch (0 = never granted).
func (l *Lease) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// Until returns the current expiry instant (zero when never granted).
func (l *Lease) Until() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.until
}

// Valid reports whether the lease currently permits acking.
func (l *Lease) Valid() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch == 0 || !l.now().After(l.until)
}

// Check is the shard.Options.AckCheck shape: nil while acking is
// permitted, an error naming the expired epoch otherwise.
func (l *Lease) Check() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.epoch == 0 || !l.now().After(l.until) {
		return nil
	}
	return fmt.Errorf("server: lease epoch %d expired", l.epoch)
}

// ackCheck is the shard.Options.AckCheck the server installs on every
// engine it boots: acks are permitted only while the lease (if one is
// configured) is valid. A partitioned primary whose renewals stopped
// goes silent here — the commit may be locally durable, but the client
// is told the outcome is unknown and retries against whoever holds the
// next lease epoch.
func (s *Server) ackCheck() error {
	if l := s.lease; l != nil {
		return l.Check()
	}
	return nil
}

// Lease exposes the serving lease (nil when LeaseTTL was not set).
func (s *Server) Lease() *Lease { return s.lease }

// GrantLease brands epoch into the coordinator log (durable before the
// permit opens) and then grants the lease: the supervisor's promotion
// handshake.
func (s *Server) GrantLease(epoch uint64) error {
	if s.lease == nil {
		return errors.New("server: no lease configured (set Options.LeaseTTL)")
	}
	eng := s.Engine()
	if eng == nil {
		return errors.New("server: lease grant: not serving (no engine)")
	}
	if epoch > eng.LeaseEpoch() {
		if err := eng.BrandLease(epoch); err != nil {
			return err
		}
	}
	if err := s.lease.Grant(epoch); err != nil {
		return err
	}
	s.suite.Metrics.LeaseEpochSet(epoch)
	return nil
}

// RenewLease extends the held lease; false means it already expired
// (and a successor may hold the next epoch).
func (s *Server) RenewLease() bool {
	if s.lease == nil {
		return false
	}
	return s.lease.Renew()
}
