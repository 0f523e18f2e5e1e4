package server

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"pushpull/internal/kvapi"
	"pushpull/internal/obs"
)

// Node is one supervised cluster member: the in-process server handle
// (for promotion and lease plumbing) plus the address clients and
// peers reach it at. The supervisor probes liveness over the wire —
// the handle staying reachable in memory proves nothing about whether
// the process still answers.
type Node struct {
	Name   string
	Server *Server
	Addr   string
}

// SupervisorOptions tunes the failure detector and failover policy.
type SupervisorOptions struct {
	// HeartbeatEvery paces liveness probes (default 10ms).
	HeartbeatEvery time.Duration
	// FailAfter is how many consecutive missed heartbeats declare the
	// primary dead (default 3).
	FailAfter int
	// Margin is the extra wait past the dead primary's lease expiry
	// before granting the successor's — the clock-skew allowance that
	// keeps "at most one acking primary per lease epoch" true even
	// when the primary's clock runs slow (default TTL/2).
	Margin time.Duration
	// DialTimeout bounds one liveness probe (default 250ms).
	DialTimeout time.Duration
	// Now and Sleep are the supervisor's clock seams; tests drive them.
	Now   func() time.Time
	Sleep func(time.Duration)
	// OnEvent receives human-readable supervision events (promotions,
	// demotions, missed beats); nil discards them.
	OnEvent func(string)
	// Suite feeds pushpull_failover_total and friends; nil skips.
	Suite *obs.Suite
}

func (o SupervisorOptions) withDefaults(ttl time.Duration) SupervisorOptions {
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 10 * time.Millisecond
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 3
	}
	if o.Margin <= 0 {
		o.Margin = ttl / 2
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 250 * time.Millisecond
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// Supervisor is the cluster's failure detector and failover driver: it
// heartbeats the primary, renews its lease while healthy, and when the
// primary dies it waits out the lease (plus skew margin), picks the
// most-advanced follower, certifies and promotes it, grants the next
// lease epoch, re-points the surviving followers, and demotes any
// deposed primary that later returns from the dead.
type Supervisor struct {
	mu        sync.Mutex
	nodes     []*Node
	opts      SupervisorOptions
	primary   int
	misses    int
	epoch     uint64    // highest lease epoch granted
	expiry    time.Time // when the current grant runs out
	failovers uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewSupervisor supervises nodes; nodes[primary] must currently be the
// serving primary, and every node must have been built with the same
// positive Options.LeaseTTL.
func NewSupervisor(nodes []*Node, primary int, opts SupervisorOptions) (*Supervisor, error) {
	if len(nodes) < 2 {
		return nil, errors.New("server: supervisor needs at least two nodes")
	}
	if primary < 0 || primary >= len(nodes) {
		return nil, fmt.Errorf("server: primary index %d out of range", primary)
	}
	lease := nodes[primary].Server.Lease()
	if lease == nil {
		return nil, errors.New("server: supervised nodes need Options.LeaseTTL set")
	}
	sv := &Supervisor{nodes: nodes, primary: primary, opts: opts.withDefaults(lease.TTL())}
	// The initial grant: start the lease regime above any epoch a
	// recovered image already branded.
	epoch := uint64(0)
	for _, n := range nodes {
		if eng := n.Server.Engine(); eng != nil && eng.LeaseEpoch() > epoch {
			epoch = eng.LeaseEpoch()
		}
	}
	sv.epoch = epoch + 1
	if err := nodes[primary].Server.GrantLease(sv.epoch); err != nil {
		return nil, fmt.Errorf("server: initial lease grant: %w", err)
	}
	sv.expiry = sv.opts.Now().Add(lease.TTL())
	sv.event("lease epoch %d granted to %s", sv.epoch, nodes[primary].Name)
	return sv, nil
}

func (sv *Supervisor) event(format string, args ...any) {
	if sv.opts.OnEvent != nil {
		sv.opts.OnEvent(fmt.Sprintf(format, args...))
	}
}

// Primary returns the currently supervised primary node.
func (sv *Supervisor) Primary() *Node {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.nodes[sv.primary]
}

// Epoch returns the highest lease epoch granted so far.
func (sv *Supervisor) Epoch() uint64 {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.epoch
}

// Failovers counts completed automatic promotions.
func (sv *Supervisor) Failovers() uint64 {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.failovers
}

// ping probes one node's wire liveness with a bounded dial.
func (sv *Supervisor) ping(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, sv.opts.DialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(sv.opts.DialTimeout))
	return kvapi.NewClient(conn).Ping()
}

// Step runs one supervision round: probe the primary, renew or count a
// miss, fail over when the detector fires, and fence any deposed
// primary that answers again. Exported so tests drive supervision
// deterministically; Start wraps it in a paced loop.
func (sv *Supervisor) Step() error {
	sv.mu.Lock()
	p := sv.nodes[sv.primary]
	sv.mu.Unlock()

	sv.fenceZombies()

	if err := sv.ping(p.Addr); err != nil {
		sv.mu.Lock()
		sv.misses++
		misses, limit := sv.misses, sv.opts.FailAfter
		sv.mu.Unlock()
		sv.event("primary %s missed heartbeat %d/%d: %v", p.Name, misses, limit, err)
		if misses >= limit {
			return sv.failover()
		}
		return nil
	}
	sv.mu.Lock()
	sv.misses = 0
	sv.mu.Unlock()
	if p.Server.RenewLease() {
		sv.mu.Lock()
		sv.expiry = sv.opts.Now().Add(p.Server.Lease().TTL())
		sv.mu.Unlock()
	}
	return nil
}

// fenceZombies demotes any node that still believes it is primary but
// is not the supervisor's current choice — a deposed primary back from
// a partition must re-follow before it can ack anything.
func (sv *Supervisor) fenceZombies() {
	sv.mu.Lock()
	cur := sv.primary
	addr := sv.nodes[cur].Addr
	nodes := sv.nodes
	sv.mu.Unlock()
	// Fence at the serving primary's engine epoch: higher than any
	// epoch the zombie branded, so its coordinator refuses new commits.
	var fenceEpoch uint64
	if eng := nodes[cur].Server.Engine(); eng != nil {
		fenceEpoch = eng.Epoch()
	}
	for i, n := range nodes {
		if i == cur || n.Server.Role() != rolePrimary {
			continue
		}
		if err := n.Server.Demote(addr, fenceEpoch); err == nil {
			sv.event("deposed primary %s fenced and re-following %s", n.Name, nodes[cur].Name)
		}
	}
}

// failover drives one automatic promotion.
func (sv *Supervisor) failover() error {
	sv.mu.Lock()
	dead := sv.primary
	deadName := sv.nodes[dead].Name
	expiry := sv.expiry
	margin := sv.opts.Margin
	sv.mu.Unlock()

	// Wait until the dead primary's lease must have expired on any
	// clock within the skew margin: until then it could still be
	// acking commits on the far side of a partition.
	if wait := expiry.Add(margin).Sub(sv.opts.Now()); wait > 0 {
		sv.event("waiting %v for %s's lease to expire", wait, deadName)
		sv.opts.Sleep(wait)
	}

	// Pick the most-advanced follower: the one whose replica holds the
	// longest applied prefix loses the least acked work. (Acked work is
	// lost when it never reached ANY follower, and nothing here
	// prevents that: the server acks before its followers poll.)
	var cands []candidate
	sv.mu.Lock()
	nodes := sv.nodes
	sv.mu.Unlock()
	for i, n := range nodes {
		if i == dead || n.Server.Role() != roleFollower {
			continue
		}
		rep := n.Server.Replica()
		if rep == nil || rep.Poisoned() != nil {
			continue
		}
		score := uint64(0)
		for s := 0; s < rep.Config().Streams(); s++ {
			score += rep.AppliedRecords(s)
		}
		cands = append(cands, candidate{idx: i, score: score})
	}
	if len(cands) == 0 {
		return fmt.Errorf("server: no promotable follower (primary %s dead)", deadName)
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score > cands[j].score })

	var firstErr error
	for _, c := range cands {
		n := nodes[c.idx]
		mr, err := n.Server.Promote()
		if err != nil {
			sv.event("promotion of %s failed: %v", n.Name, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sv.mu.Lock()
		sv.epoch++
		epoch := sv.epoch
		sv.primary = c.idx
		sv.misses = 0
		sv.failovers++
		sv.mu.Unlock()
		if err := n.Server.GrantLease(epoch); err != nil {
			return fmt.Errorf("server: lease grant after promotion: %w", err)
		}
		sv.mu.Lock()
		sv.expiry = sv.opts.Now().Add(n.Server.Lease().TTL())
		sv.mu.Unlock()
		if sv.opts.Suite != nil {
			sv.opts.Suite.Metrics.FailoverObserved()
		}
		sv.event("promoted %s (certified: %d shards, epoch %d, lease epoch %d)",
			n.Name, len(mr.Shards), mr.Epoch, epoch)
		// Surviving followers chase the new timeline; the dead primary
		// is fenced by fenceZombies if it ever comes back.
		for i, o := range nodes {
			if i == c.idx || i == dead || o.Server.Role() != roleFollower {
				continue
			}
			if err := o.Server.Refollow(n.Addr); err != nil {
				sv.event("refollow of %s failed: %v", o.Name, err)
			}
		}
		return nil
	}
	return fmt.Errorf("server: every candidate promotion failed: %w", firstErr)
}

// candidate is a promotable follower scored by applied-prefix length.
type candidate struct {
	idx   int
	score uint64
}

// Start runs the supervision loop until Stop.
func (sv *Supervisor) Start() {
	sv.mu.Lock()
	if sv.stop != nil {
		sv.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	sv.stop = stop
	sv.mu.Unlock()
	sv.wg.Add(1)
	go func() {
		defer sv.wg.Done()
		t := time.NewTicker(sv.opts.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := sv.Step(); err != nil {
					sv.event("supervision step failed: %v", err)
				}
			}
		}
	}()
}

// Stop halts the supervision loop (the cluster keeps serving).
func (sv *Supervisor) Stop() {
	sv.mu.Lock()
	stop := sv.stop
	sv.stop = nil
	sv.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	sv.wg.Wait()
}
