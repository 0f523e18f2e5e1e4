package server

import (
	"errors"
	"fmt"
	"time"

	"pushpull/internal/kvapi"
	"pushpull/internal/repl"
	"pushpull/internal/shard"
)

// Replication roles. An unreplicated server has the empty role.
const (
	rolePrimary   = "primary"
	roleFollower  = "follower"
	rolePromoting = "promoting"
)

// ErrNotFollower reports a promotion or re-follow request on a server
// that is not currently a follower.
var ErrNotFollower = errors.New("server: not a follower")

// newFollower finishes construction for Options.Follow: a warm-standby
// replica, a puller resuming from its watermarks, and a reconnecting
// upstream client. The poll loop starts immediately — the follower
// converges whether or not it ever opens a listener.
func (s *Server) newFollower() (*Server, error) {
	cfg := repl.Config{
		Substrate: s.opts.Substrate, Shards: s.opts.Shards, Keys: s.opts.Keys,
	}
	s.replica = repl.NewReplica(cfg)
	s.replica.SetObserver(s.suite.Metrics)
	s.puller = repl.NewPuller(s.replica, 0)
	// The poll loop must fail fast when the primary dies — promotion
	// waits for it — so the upstream client backs off briefly and gives
	// up early; the next tick retries anyway.
	s.upstream = kvapi.NewReconnectClient(s.opts.Follow, kvapi.ReconnectOptions{
		Seed: s.opts.Seed, BaseDelay: time.Millisecond,
		MaxDelay: 50 * time.Millisecond, MaxTries: 4,
	})
	s.role = roleFollower
	s.suite.Metrics.ReplRoleSet(roleFollower)
	s.startPolling()
	return s, nil
}

// Role returns the replication role ("" when unreplicated).
func (s *Server) Role() string {
	s.replMu.RLock()
	defer s.replMu.RUnlock()
	return s.role
}

// Replica exposes the follower's warm standby (nil otherwise).
func (s *Server) Replica() *repl.Replica {
	s.replMu.RLock()
	defer s.replMu.RUnlock()
	return s.replica
}

// pollSource adapts the upstream primary's MsgReplPoll endpoint to the
// repl.Source poll interface.
type pollSource struct {
	c       *kvapi.ReconnectClient
	streams int
}

func (ps pollSource) Streams() int { return ps.streams }

func (ps pollSource) PollStream(stream, seg, off, max int) (repl.StreamChunk, error) {
	resp, err := ps.c.ReplPoll(stream, seg, off, max)
	if err != nil {
		return repl.StreamChunk{}, err
	}
	if resp.Status != kvapi.StatusOK {
		return repl.StreamChunk{}, fmt.Errorf("repl poll: %s: %s", resp.Status, resp.Msg)
	}
	return repl.StreamChunk{
		Data: resp.Data, Next: resp.Next, More: resp.More,
		Epoch: resp.Epoch, Appends: resp.Appends,
	}, nil
}

func (s *Server) startPolling() {
	stop := make(chan struct{})
	s.replMu.Lock()
	s.pollStop = stop
	s.replMu.Unlock()
	s.pollWG.Add(1)
	go s.pollLoop(stop)
}

// stopPolling is idempotent; it blocks until the loop exits.
func (s *Server) stopPolling() {
	s.replMu.Lock()
	stop := s.pollStop
	s.pollStop = nil
	s.replMu.Unlock()
	if stop != nil {
		close(stop)
	}
	s.pollWG.Wait()
}

func (s *Server) pollLoop(stop chan struct{}) {
	defer s.pollWG.Done()
	t := time.NewTicker(s.opts.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			// The primary being down is not an error worth surfacing
			// here: the reconnecting client retries, and the lag gauge
			// tells the story. Poison would surface on every sync and
			// is reported by FinalCheck and /stats.
			_, _ = s.SyncNow()
		}
	}
}

// SyncNow drains the upstream's available durable bytes into the
// replica and refreshes the lag gauges — the poll loop's body, exported
// so tests and operators can force deterministic catch-up.
func (s *Server) SyncNow() (int, error) {
	s.replMu.RLock()
	puller, up := s.puller, s.upstream
	cfg := puller.Replica().Config()
	s.replMu.RUnlock()
	n, err := puller.Sync(pollSource{c: up, streams: cfg.Streams()})
	for i, lag := range puller.Lag() {
		s.suite.Metrics.ReplLagSet(streamLabel(cfg, i), lag)
	}
	return n, err
}

func streamLabel(cfg repl.Config, i int) string {
	if i == cfg.CoordStream() {
		return "coord"
	}
	return fmt.Sprintf("shard-%d", i)
}

// redirectResponse points a client at where writes go. The address
// comes from the caller's roleView — taken in the same replMu
// acquisition as the role itself, so a redirect never pairs the old
// role with the new primary's address mid-failover.
func (s *Server) redirectResponse(addr string) kvapi.Response {
	return kvapi.Response{
		Status: kvapi.StatusRedirect, Redirect: addr,
		Msg: "follower: writes go to the primary",
	}
}

// doTxnFollower serves an unflagged all-read one-shot from the
// replica's pinned cut — a consistent (stale-bounded) certified
// snapshot — under the admission gate. Any write redirects the whole
// transaction to the primary. (Clients that declare ReadOnly skip this
// path and the gate both.)
func (s *Server) doTxnFollower(rv roleView, ops []kvapi.Op) kvapi.Response {
	ok, hint := s.gate.acquire()
	if !ok {
		return busyResponse(hint)
	}
	defer s.gate.release()
	if !allReads(ops) {
		return s.redirectResponse(rv.advertise)
	}
	cut, ok := s.pinCut(rv)
	if !ok {
		return s.redirectResponse(rv.advertise)
	}
	defer cut.Close()
	return s.readCut(cut, ops)
}

// doReplPoll answers a follower's cursor read over one durable stream.
func (s *Server) doReplPoll(req kvapi.Request) kvapi.Response {
	s.replMu.RLock()
	eng := s.eng
	s.replMu.RUnlock()
	if eng == nil {
		return kvapi.Response{Status: kvapi.StatusError,
			Msg: "not a replication source (follower, or server not replicated)"}
	}
	max := req.Max
	const maxPoll = 256 << 10
	if max <= 0 || max > maxPoll {
		max = maxPoll
	}
	data, next, more, err := eng.ReadDurable(req.Stream, req.Seg, req.Off, max)
	if err != nil {
		return kvapi.Response{Status: kvapi.StatusError, Msg: err.Error()}
	}
	return kvapi.Response{
		Status: kvapi.StatusOK, Data: data, Next: next, More: more,
		Epoch: eng.Epoch(), Appends: eng.StreamAppends(req.Stream),
	}
}

// Promote turns a follower into the serving primary: stop polling, take
// one final drain of whatever the (presumed dead) primary still
// answers, run the full recovery certificate over the shipped bytes —
// a follower may only take over with a certificate in hand — and boot a
// fresh engine from the certified image at the next epoch. The returned
// report is the promotion certificate (merged commit order, in-doubt
// resolutions, per-shard chains).
//
// The new engine re-logs the checkpoint into fresh streams: a new
// timeline. Surviving followers of the old primary must re-follow with
// a fresh replica (Refollow); their old bytes are not a prefix of the
// new streams.
func (s *Server) Promote() (shard.MultiReport, error) {
	s.replMu.Lock()
	if s.role != roleFollower {
		role := s.role
		s.replMu.Unlock()
		return shard.MultiReport{}, fmt.Errorf("%w: role %q", ErrNotFollower, role)
	}
	s.role = rolePromoting
	s.replMu.Unlock()
	s.suite.Metrics.ReplRoleSet(rolePromoting)

	s.stopPolling()
	_, _ = s.SyncNow() // best-effort final drain; the primary is likely dead
	if err := s.replica.Poisoned(); err != nil {
		s.demoteTo(roleFollower)
		return shard.MultiReport{}, fmt.Errorf("server: refusing promotion: %w", err)
	}
	mr, err := s.replica.Certify()
	if err != nil {
		s.demoteTo(roleFollower)
		return shard.MultiReport{}, fmt.Errorf("server: promotion certificate failed: %w", err)
	}
	epoch := mr.Epoch
	if e := s.replica.Epoch(); e > epoch {
		epoch = e
	}
	eo := s.engineOptions()
	eo.Durable, eo.RecoverFrom, eo.Epoch = true, s.replica.Image(), epoch+1
	eng, err := shard.New(eo)
	if err != nil {
		s.demoteTo(roleFollower)
		return shard.MultiReport{}, fmt.Errorf("server: promotion boot failed: %w", err)
	}
	s.replMu.Lock()
	s.eng = eng
	s.role = rolePrimary
	s.replMu.Unlock()
	s.suite.Metrics.ReplRoleSet(rolePrimary)
	if s.upstream != nil {
		_ = s.upstream.Close()
	}
	return mr, nil
}

// demoteTo restores a failed promotion to a polling follower.
func (s *Server) demoteTo(role string) {
	s.replMu.Lock()
	s.role = role
	restart := s.pollStop == nil
	s.replMu.Unlock()
	s.suite.Metrics.ReplRoleSet(role)
	if restart {
		s.startPolling()
	}
}

// Demote fences a (possibly zombie) primary back into a follower of
// addr: the lease is force-expired so nothing acks, the engine is
// fenced at the successor's epoch and torn down, and a fresh warm
// standby starts catching up from the new primary's streams. This is
// the supervisor's move when a deposed primary comes back mid-run —
// the returning node must not ack a single commit under its old lease.
func (s *Server) Demote(addr string, epoch uint64) error {
	s.replMu.Lock()
	if s.role != rolePrimary {
		role := s.role
		s.replMu.Unlock()
		return fmt.Errorf("server: demote: role %q is not primary", role)
	}
	eng := s.eng
	s.eng = nil
	s.role = roleFollower
	s.replMu.Unlock()
	if s.lease != nil {
		s.lease.Expire()
	}
	if eng != nil {
		if epoch > eng.Epoch() {
			eng.Fence(epoch)
		}
		_ = eng.Close()
	}
	s.suite.Metrics.ReplRoleSet(roleFollower)
	s.replMu.Lock()
	cfg := repl.Config{
		Substrate: s.opts.Substrate, Shards: s.opts.Shards, Keys: s.opts.Keys,
	}
	if s.replica != nil {
		cfg = s.replica.Config()
	}
	s.replica = repl.NewReplica(cfg)
	s.replica.SetObserver(s.suite.Metrics)
	s.puller = repl.NewPuller(s.replica, 0)
	s.opts.Follow, s.opts.Advertise = addr, addr
	up := s.upstream
	s.replMu.Unlock()
	if up != nil {
		up.Retarget(addr)
	} else {
		s.replMu.Lock()
		s.upstream = kvapi.NewReconnectClient(addr, kvapi.ReconnectOptions{
			Seed: s.opts.Seed, BaseDelay: time.Millisecond,
			MaxDelay: 50 * time.Millisecond, MaxTries: 4,
		})
		s.replMu.Unlock()
	}
	s.startPolling()
	return nil
}

// Refollow re-points a follower at a new primary — the surviving
// followers' move after a promotion. The new primary's streams are a
// new timeline (its boot re-logged the checkpoint into fresh segments),
// so the replica is rebuilt from scratch and catches up from byte zero.
func (s *Server) Refollow(addr string) error {
	s.replMu.Lock()
	if s.role != roleFollower {
		role := s.role
		s.replMu.Unlock()
		return fmt.Errorf("%w: role %q", ErrNotFollower, role)
	}
	s.replMu.Unlock()
	s.stopPolling()
	s.replMu.Lock()
	cfg := s.replica.Config()
	s.replica = repl.NewReplica(cfg)
	s.replica.SetObserver(s.suite.Metrics)
	s.puller = repl.NewPuller(s.replica, 0)
	s.opts.Follow, s.opts.Advertise = addr, addr
	s.replMu.Unlock()
	s.upstream.Retarget(addr)
	s.startPolling()
	return nil
}

// SetAdvertise re-points where this server redirects write traffic —
// the supervisor (or an operator) updates it as the primary moves.
func (s *Server) SetAdvertise(addr string) {
	s.replMu.Lock()
	s.opts.Advertise = addr
	s.replMu.Unlock()
}

// ReplLag snapshots the last observed per-stream record lag, labeled.
func (s *Server) ReplLag() map[string]uint64 {
	s.replMu.RLock()
	puller := s.puller
	s.replMu.RUnlock()
	if puller == nil {
		return nil
	}
	cfg := puller.Replica().Config()
	out := make(map[string]uint64)
	for i, lag := range puller.Lag() {
		out[streamLabel(cfg, i)] = lag
	}
	return out
}
