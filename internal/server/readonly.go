package server

import (
	"errors"

	"pushpull/internal/kvapi"
	"pushpull/internal/mvcc"
	"pushpull/internal/repl"
	"pushpull/internal/shard"
)

// roleView is one request's consistent snapshot of the replication
// state. dispatch takes it exactly once per request — the role, the
// engine, the replica, and the redirect target move together under
// replMu during promotion/demotion, and reading them piecemeal races
// the poll loop and the supervisor (a request could see the old role
// with the new engine).
type roleView struct {
	role      string
	eng       *shard.Engine
	replica   *repl.Replica
	advertise string
}

func (rv roleView) follower() bool {
	return rv.role == roleFollower || rv.role == rolePromoting
}

func (s *Server) roleView() roleView {
	s.replMu.RLock()
	defer s.replMu.RUnlock()
	return roleView{role: s.role, eng: s.eng, replica: s.replica, advertise: s.opts.Advertise}
}

// pinCut pins a read-only transaction against whatever this server is
// right now: the replica's cut on a follower, the engine's GSN-
// consistent cut on a primary. ok is false when there is no version
// store to serve from (certification disabled, or a follower with no
// replica yet).
func (s *Server) pinCut(rv roleView) (*mvcc.Cut, bool) {
	switch {
	case rv.follower() && rv.replica != nil:
		return rv.replica.SnapshotCut(), true
	case rv.eng != nil:
		cut, err := rv.eng.SnapshotCut()
		return cut, err == nil // ErrNoMVCC: certification disabled
	}
	return nil, false
}

// allReads reports whether every op is a get or a cget — the only ops
// a snapshot can answer.
func allReads(ops []kvapi.Op) bool {
	for _, op := range ops {
		if op.Kind != kvapi.OpGet && op.Kind != kvapi.OpCGet {
			return false
		}
	}
	return true
}

// readCut is the one read-only executor: it answers ops (all reads)
// from cut, certifies every answer, and only then releases them. It
// serves flagged one-shots on either role and unflagged all-read
// one-shots on a follower.
func (s *Server) readCut(cut *mvcc.Cut, ops []kvapi.Op) kvapi.Response {
	results := make([]kvapi.Result, len(ops))
	for i, op := range ops {
		if op.Kind == kvapi.OpCGet {
			results[i] = kvapi.Result{Val: cut.Counter(op.Key), Found: true}
		} else {
			results[i].Val, results[i].Found = cut.Get(op.Key)
		}
	}
	if err := cut.Certify(); err != nil {
		s.suite.Metrics.ROAbort()
		return kvapi.Response{Status: kvapi.StatusError, Msg: err.Error()}
	}
	s.suite.Metrics.ROCommit()
	return kvapi.Response{Status: kvapi.StatusOK, Results: results, Snapshot: cut.Watermark()}
}

// errROWrite rejects a write inside the read-only class.
var errROWrite = errors.New("read-only transaction: writes rejected")

// doTxnReadOnly serves a one-shot transaction flagged ReadOnly: no
// admission gate, no locks, no retry loop — a pinned snapshot cut,
// the reads, certification, done. When no version store exists
// (certification disabled) the request falls back to the normal
// transactional path, which still answers it correctly, just without
// the never-abort guarantee.
func (s *Server) doTxnReadOnly(rv roleView, ops []kvapi.Op, session, seqNo uint64) kvapi.Response {
	if !allReads(ops) {
		s.suite.Metrics.ROAbort()
		return kvapi.Response{Status: kvapi.StatusError, Msg: errROWrite.Error()}
	}
	cut, ok := s.pinCut(rv)
	if !ok {
		return s.doTxnSession(rv, ops, session, seqNo)
	}
	defer cut.Close()
	return s.readCut(cut, ops)
}

// doBeginRO opens an interactive read-only transaction: the snapshot
// pins now and every Get until Commit answers at it. It bypasses the
// admission gate (it holds no substrate resources a writer could wait
// on) but counts as an open session for shutdown accounting.
// Followers serve it locally — this is the one interactive class a
// follower does not redirect.
func (s *Server) doBeginRO(cs *connState, rv roleView) kvapi.Response {
	if cs.open() {
		return kvapi.Response{Status: kvapi.StatusError, Msg: "transaction already open on this connection"}
	}
	cut, ok := s.pinCut(rv)
	if !ok {
		return s.doBegin(cs, rv) // certification disabled: normal interactive txn (a follower redirects)
	}
	cs.ro = cut
	s.sessions.Add(1)
	return kvapi.Response{Status: kvapi.StatusOK, Snapshot: cut.Watermark()}
}

// endROSession releases what doBeginRO acquired (no gate slot).
func (s *Server) endROSession(cs *connState) {
	cs.ro.Close()
	cs.ro = nil
	s.sessions.Add(-1)
}

// doOpRO answers one interactive request inside a read-only session.
// A Put is a protocol violation that aborts the whole session: the
// client declared the PULL-only class and must not smuggle a PUSH.
func (s *Server) doOpRO(cs *connState, req kvapi.Request) kvapi.Response {
	if req.Type == kvapi.MsgPut {
		s.suite.Metrics.ROAbort()
		s.endROSession(cs)
		return kvapi.Response{Status: kvapi.StatusError, Msg: errROWrite.Error()}
	}
	val, found := cs.ro.Get(req.Key)
	return kvapi.Response{Status: kvapi.StatusOK, Results: []kvapi.Result{{Val: val, Found: found}}}
}

// doEndRO commits (certifies) or abandons a read-only session. Commit
// cannot fail for conflict reasons; a certification error means the
// server's own store diverged and the response says so.
func (s *Server) doEndRO(cs *connState, commit bool) kvapi.Response {
	cut := cs.ro
	w := cut.Watermark()
	var err error
	if commit {
		err = cut.Certify()
	}
	s.endROSession(cs)
	if !commit {
		return kvapi.Response{Status: kvapi.StatusOK, Snapshot: w}
	}
	if err != nil {
		s.suite.Metrics.ROAbort()
		return kvapi.Response{Status: kvapi.StatusError, Msg: err.Error()}
	}
	s.suite.Metrics.ROCommit()
	return kvapi.Response{Status: kvapi.StatusOK, Snapshot: w}
}
