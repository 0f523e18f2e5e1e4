package server

import (
	"errors"
	"fmt"

	"pushpull/internal/backend"
	"pushpull/internal/kvapi"
	"pushpull/internal/mvcc"
	typedops "pushpull/internal/ops"
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

// roTxn is one pinned read-only transaction: per-shard snapshots, the
// independent certifiers the observed reads must pass before results
// are released, and the read log itself. It takes no admission slot,
// no substrate lock, and no retry budget — the read-only class cannot
// conflict, so it cannot abort.
type roTxn struct {
	shardOf func(uint64) int
	snaps   []*mvcc.Snapshot
	certs   []*mvcc.Shadow
	reads   [][]mvcc.ReadObs
}

// beginRO pins a read-only transaction against whatever this server
// is right now. ok is false when there is no version store to serve
// from (certification disabled) — the caller falls back to the normal
// transactional path.
func (s *Server) beginRO(rv roleView) (*roTxn, bool) {
	switch {
	case rv.follower() && rv.replica != nil:
		snaps, certs := rv.replica.SnapshotCut()
		return &roTxn{
			shardOf: rv.replica.Shard,
			snaps:   snaps, certs: certs,
			reads: make([][]mvcc.ReadObs, len(snaps)),
		}, true
	case rv.eng != nil:
		cut, err := rv.eng.SnapshotCut()
		if err != nil {
			return nil, false // ErrNoMVCC: certification disabled
		}
		return &roTxn{
			shardOf: rv.eng.ShardOf,
			snaps:   cut.Snaps(), certs: rv.eng.Certifiers(),
			reads: make([][]mvcc.ReadObs, len(cut.Snaps())),
		}, true
	}
	return nil, false
}

// get reads key at the pinned snapshot and logs the observation for
// certification at commit.
func (t *roTxn) get(key uint64) (int64, bool) {
	sid := t.shardOf(key)
	val, found := t.snaps[sid].Get(key)
	t.reads[sid] = append(t.reads[sid], mvcc.ReadObs{Key: key, Val: val, Found: found})
	return val, found
}

// watermark condenses the pinned per-partition commit seqs into the
// wire token (their max; per-shard stamps are independent sequences,
// so this is an opaque recency witness, not a global order position).
func (t *roTxn) watermark() uint64 {
	var w uint64
	for _, sn := range t.snaps {
		if sw := sn.Watermark(); sw > w {
			w = sw
		}
	}
	return w
}

// certify checks every observed read against its partition's
// independent committed-history shadow. An error here is not a
// conflict — the read-only class has none — it means the version
// store diverged from the committed log, and the response must be
// refused rather than serve an unserializable read.
func (t *roTxn) certify() error {
	for sid, reads := range t.reads {
		if len(reads) == 0 {
			continue
		}
		if err := t.certs[sid].Certify(t.snaps[sid].Watermark(), reads); err != nil {
			return fmt.Errorf("partition %d: %w", sid, err)
		}
	}
	return nil
}

// close unpins every snapshot (idempotent).
func (t *roTxn) close() {
	for _, sn := range t.snaps {
		sn.Close()
	}
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
	hasCGet := false
	for _, op := range ops {
		switch op.Kind {
		case kvapi.OpGet:
		case kvapi.OpCGet:
			hasCGet = true
		default:
			s.suite.Metrics.ROAbort()
			return kvapi.Response{Status: kvapi.StatusError, Msg: errROWrite.Error()}
		}
	}
	if hasCGet && !backend.TypedNative(s.opts.Substrate) {
		// Word-family substrates keep typed counters in the plain
		// register array, not the ops.KeyBit fold namespace the
		// snapshot read below would consult — answer on the normal
		// transactional path (the replica's image on a follower), which
		// reads the registers directly.
		return s.doTxnSession(rv, ops, session, seqNo)
	}
	tx, ok := s.beginRO(rv)
	if !ok {
		return s.doTxnSession(rv, ops, session, seqNo)
	}
	defer tx.close()
	results := make([]kvapi.Result, len(ops))
	for i, op := range ops {
		if op.Kind == kvapi.OpCGet {
			// Committed counter cells fold into the version store under
			// the high-bit namespace; an absent cell reads as 0, the
			// same answer the typed substrate gives.
			val, _ := tx.get(typedops.KeyBit | op.Key)
			results[i] = kvapi.Result{Val: val, Found: true}
			continue
		}
		val, found := tx.get(op.Key)
		results[i] = kvapi.Result{Val: val, Found: found}
	}
	if err := tx.certify(); err != nil {
		s.suite.Metrics.ROAbort()
		return kvapi.Response{Status: kvapi.StatusError, Msg: err.Error()}
	}
	s.suite.Metrics.ROCommit()
	return kvapi.Response{Status: kvapi.StatusOK, Results: results, Snapshot: tx.watermark()}
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
	tx, ok := s.beginRO(rv)
	if !ok {
		return s.doBegin(cs, rv) // certification disabled: normal interactive txn (a follower redirects)
	}
	cs.ro = tx
	s.sessions.Add(1)
	return kvapi.Response{Status: kvapi.StatusOK, Snapshot: tx.watermark()}
}

// endROSession releases what doBeginRO acquired (no gate slot).
func (s *Server) endROSession(cs *connState) {
	cs.ro.close()
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
	val, found := cs.ro.get(req.Key)
	return kvapi.Response{Status: kvapi.StatusOK, Results: []kvapi.Result{{Val: val, Found: found}}}
}

// doEndRO commits (certifies) or abandons a read-only session. Commit
// cannot fail for conflict reasons; a certification error means the
// server's own store diverged and the response says so.
func (s *Server) doEndRO(cs *connState, commit bool) kvapi.Response {
	tx := cs.ro
	w := tx.watermark()
	var err error
	if commit {
		err = tx.certify()
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
