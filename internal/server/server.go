package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pushpull/internal/backend"
	"pushpull/internal/chaos"
	"pushpull/internal/kvapi"
	"pushpull/internal/mvcc"
	"pushpull/internal/obs"
	"pushpull/internal/repl"
	"pushpull/internal/shard"
	"pushpull/internal/wal"
)

// Options configure a Server.
type Options struct {
	// Substrate selects the TM implementation (default "tl2"); see
	// backend.Substrates().
	Substrate string
	// Keys sizes the word substrates' address space (default 64).
	Keys int
	// Seed drives the retry policy, chaos plan derivations, and the
	// boosted map's skiplist levels (default 1).
	Seed int64
	// DisableCert drops shadow-machine certification (raw throughput).
	DisableCert bool
	// Shards is the partition count (default 1). Every server serves
	// through a shard.Engine: one independent machine (own WAL stream,
	// recorder site, metrics label) per shard, single-shard transactions
	// routed to their home shard unchanged, cross-shard ones through the
	// journaled two-phase coordinator (internal/shard). One shard is the
	// plain single-machine server.
	Shards int
	// Seq switches the cross-shard commit path from the coordinator
	// mutex to the deterministic sequencer (internal/seq): GSNs are
	// assigned at admission, one forced batch record per epoch replaces
	// the per-transaction force, and per-shard executors release commits
	// in GSN order. Ignored at one shard (nothing crosses).
	Seq bool
	// BatchInterval is the sequencer's optional accumulation window
	// (zero = pure adaptive group commit: each epoch seals whatever
	// piled up during the previous force).
	BatchInterval time.Duration

	// MaxInflight bounds concurrently running transactions (default
	// 64); MaxQueue bounds waiters beyond that (default 2*MaxInflight;
	// negative means zero). Arrivals past both get StatusBusy.
	MaxInflight int
	MaxQueue    int

	// Retry is the server-side retry policy applied to every
	// transaction (default chaos.Default(Seed)).
	Retry *chaos.RetryPolicy
	// Plan, when non-nil, injects faults server-side: substrate
	// conflict sites plus WAL crash scheduling — so a load campaign
	// against a live server exercises the same certified chaos paths
	// as the in-process harnesses.
	Plan *chaos.Plan

	// WALDir backs the write-ahead logs with files (one shard: wal-*.seg
	// flat in WALDir; more: WALDir/shard-NN/; coord.log beside them);
	// Durable keeps in-memory logs when WALDir is empty (tests,
	// simulated crashes). With neither, commits are not durable and no
	// recovery runs.
	WALDir       string
	Durable      bool
	SyncPolicy   wal.SyncPolicy
	GroupEvery   int
	SegmentBytes int
	// RecoverFrom, when non-nil, supplies the durable image to recover
	// from explicitly (the in-memory restart path, from ShardImage()); it
	// takes precedence over reading WALDir.
	RecoverFrom *shard.Image

	// Suite receives all telemetry (default: a fresh obs.New()).
	Suite *obs.Suite

	// Replicate serves the replication poll endpoint (MsgReplPoll), with
	// durable WALs forced on so followers can stream the engine's logs.
	Replicate bool
	// Epoch is the serving generation branded into the coordinator log
	// (zero means epoch 1 when replicating); a server taking over from
	// a dead primary passes the predecessor's epoch + 1.
	Epoch uint64
	// Advertise is the address write traffic should be redirected to.
	// On a follower it names the primary; on a primary it is unused.
	Advertise string
	// Follow makes this server a read-only follower of the primary at
	// the given address: it builds no substrate of its own, polls the
	// primary's durable streams into a warm-standby replica, serves
	// read-only transactions from the committed prefix, and redirects
	// writes to Advertise (or Follow when Advertise is empty). Shards,
	// Substrate, and Keys must match the primary's.
	Follow string
	// PollInterval paces the follower's catch-up loop (default 5ms).
	PollInterval time.Duration
	// LeaseTTL, when positive, arms lease-fenced acking: once a
	// supervisor has granted this server a lease (GrantLease), commits
	// are acknowledged only while the lease is unexpired — renewals
	// stopping (a partition, a dead supervisor) silence the primary by
	// itself, which is what bounds the cluster to at most one acking
	// primary per lease epoch. Zero leaves acking ungated (epoch
	// fencing still applies).
	LeaseTTL time.Duration
	// Clock is the lease's time source (tests and sweeps drive it
	// manually); nil means time.Now.
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Substrate == "" {
		o.Substrate = "tl2"
	}
	if o.Keys <= 0 {
		o.Keys = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 64
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 2 * o.MaxInflight
	}
	if o.MaxQueue < 0 {
		o.MaxQueue = 0
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 5 * time.Millisecond
	}
	if o.Follow != "" && o.Advertise == "" {
		o.Advertise = o.Follow
	}
	if o.Replicate && o.WALDir == "" {
		o.Durable = true // followers poll durable bytes; there must be some
	}
	if o.Replicate && o.Epoch == 0 {
		o.Epoch = 1 // brand the stream so fencing has a generation to compare
	}
	return o
}

// Server is the transactional KV service: transport (the framed binary
// protocol and the HTTP fallback), replication roles, admission control
// and the serving lease. Everything transactional — recovery, WALs,
// substrates, chaos, the exactly-once table, interactive transactions —
// belongs to the shard.Engine it serves through.
type Server struct {
	opts  Options
	suite *obs.Suite
	gate  *gate
	lease *Lease

	// The serving state, guarded by replMu. eng is nil only on a
	// follower that has not been promoted; role is "" (unreplicated),
	// "primary", "follower", or "promoting".
	replMu   sync.RWMutex
	eng      *shard.Engine
	role     string
	replica  *repl.Replica
	puller   *repl.Puller
	upstream *kvapi.ReconnectClient
	pollStop chan struct{}
	pollWG   sync.WaitGroup

	sessions atomic.Int64 // open interactive sessions

	mu      sync.Mutex
	ln      net.Listener
	httpLns map[net.Listener]struct{}
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
}

// New builds a server. A follower (Options.Follow) builds a warm
// standby; everything else boots the engine, which recovers and
// certifies the durable image first (refusing to serve one that does
// not re-certify), then wires one substrate backend per shard to its
// WAL, group commit, chaos plan and the observability suite, and
// re-applies the recovered state as fresh certified transactions (the
// restart checkpoint). The listener is not opened here — call Start or
// Serve.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	suite := opts.Suite
	if suite == nil {
		suite = obs.New()
	}
	s := &Server{opts: opts, suite: suite, conns: make(map[net.Conn]struct{})}
	s.gate = newGate(opts.MaxInflight, opts.MaxQueue)
	if opts.LeaseTTL > 0 {
		// Followers get the lease too: a promotion inherits it, and the
		// supervisor grants the serving epoch into it.
		s.lease = NewLease(opts.LeaseTTL, opts.Clock)
	}

	// A follower builds no substrate: it folds the primary's shipped
	// bytes into a warm standby and serves reads from that.
	if opts.Follow != "" {
		return s.newFollower()
	}

	eo := s.engineOptions()
	eo.Plan = opts.Plan
	eo.WALDir, eo.Durable = opts.WALDir, opts.Durable
	eo.RecoverFrom, eo.Epoch = opts.RecoverFrom, opts.Epoch
	eo.Seq, eo.BatchInterval = opts.Seq, opts.BatchInterval
	eng, err := shard.New(eo)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	if opts.Replicate {
		s.role = rolePrimary
		suite.Metrics.ReplRoleSet(rolePrimary)
	}
	return s, nil
}

// engineOptions is what every engine this server boots shares — the
// first one in New and a promoted follower's in Promote.
func (s *Server) engineOptions() shard.Options {
	o := s.opts
	return shard.Options{
		Shards: o.Shards, Substrate: o.Substrate, Keys: o.Keys,
		Seed: o.Seed, DisableCert: o.DisableCert, Retry: o.Retry,
		SyncPolicy: o.SyncPolicy, GroupEvery: o.GroupEvery,
		SegmentBytes: o.SegmentBytes,
		Suite:        s.suite, AckCheck: s.ackCheck,
	}
}

// Start opens a TCP listener on addr (use "127.0.0.1:0" in tests) and
// serves in the background; the returned address is the bound one.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("server: already stopped")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// handleConn speaks the framed binary protocol on one connection. One
// interactive transaction may be open per connection; dropping the
// connection aborts it (undo, lock release, shadow rewind) before the
// handler exits — the no-leak guarantee the shutdown tests assert.
func (s *Server) handleConn(conn net.Conn) {
	var cs connState
	defer func() {
		if cs.stx != nil {
			cs.stx.Abandon()
			s.endSession(&cs)
		}
		if cs.ro != nil {
			s.endROSession(&cs)
		}
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.wg.Done()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		req, err := kvapi.ReadRequest(br)
		if err != nil {
			return
		}
		resp := s.dispatch(&cs, req)
		if err := kvapi.WriteResponse(bw, resp); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// connState is one connection's open interactive transaction: an engine
// transaction or a read-only snapshot transaction — never both.
type connState struct {
	stx *shard.Txn
	ro  *mvcc.Cut
}

func (cs *connState) open() bool { return cs.stx != nil || cs.ro != nil }

// dispatch routes one request and feeds the per-endpoint request
// counters and latency histograms.
func (s *Server) dispatch(cs *connState, req kvapi.Request) kvapi.Response {
	t0 := time.Now()
	var resp kvapi.Response
	// One consistent view of the replication state per request: role,
	// engine, replica, and redirect target move together under replMu
	// during promotion/demotion, and reading them piecemeal races the
	// poll loop and the supervisor. A follower (or a mid-promotion
	// server, whose engine is not yet serving) answers read-only
	// one-shots from the replica and points everything transactional at
	// the primary.
	rv := s.roleView()
	switch req.Type {
	case kvapi.MsgPing:
		resp = kvapi.Response{Status: kvapi.StatusOK}
	case kvapi.MsgTxn:
		switch {
		case req.ReadOnly:
			resp = s.doTxnReadOnly(rv, req.Ops, req.Session, req.Seq)
		case rv.follower():
			resp = s.doTxnFollower(rv, req.Ops)
		default:
			resp = s.doTxnSession(rv, req.Ops, req.Session, req.Seq)
		}
	case kvapi.MsgBegin:
		switch {
		case req.ReadOnly:
			resp = s.doBeginRO(cs, rv)
		case rv.follower():
			resp = s.redirectResponse(rv.advertise)
		default:
			resp = s.doBegin(cs, rv)
		}
	case kvapi.MsgGet, kvapi.MsgPut:
		resp = s.doOp(cs, req)
	case kvapi.MsgCommit:
		resp = s.doEnd(cs, true)
	case kvapi.MsgAbort:
		resp = s.doEnd(cs, false)
	case kvapi.MsgReplPoll:
		resp = s.doReplPoll(req)
	default:
		resp = kvapi.Response{Status: kvapi.StatusError,
			Msg: fmt.Sprintf("unknown message type %d", byte(req.Type))}
	}
	s.suite.Metrics.RequestObserved(req.Type.String(), resp.Status.String(), time.Since(t0))
	return resp
}

// DoTxn executes ops as one one-shot transaction under admission
// control — exported for the HTTP fallback and in-process callers.
func (s *Server) DoTxn(ops []kvapi.Op) kvapi.Response {
	return s.DoTxnSession(ops, 0, 0)
}

// DoTxnSession is DoTxn carrying an exactly-once session identity
// (session 0 means none).
func (s *Server) DoTxnSession(ops []kvapi.Op, session, seqNo uint64) kvapi.Response {
	t0 := time.Now()
	resp := s.doTxnSession(s.roleView(), ops, session, seqNo)
	s.suite.Metrics.RequestObserved("http.txn", resp.Status.String(), time.Since(t0))
	return resp
}

// doTxnSession runs a one-shot through the engine under the admission
// gate. The engine owns the exactly-once table (a dedup hit answers with
// the original results) and the ack gate (an expired lease or a fenced
// engine withholds the ack: "commit state unknown").
func (s *Server) doTxnSession(rv roleView, ops []kvapi.Op, session, seqNo uint64) kvapi.Response {
	if rv.eng == nil {
		// A follower reached outside dispatch (the HTTP fallback):
		// read-only one-shots are served, everything else redirects.
		return s.doTxnFollower(rv, ops)
	}
	ok, hint := s.gate.acquire()
	if !ok {
		return busyResponse(hint)
	}
	defer s.gate.release()
	res, retries, dedup, err := rv.eng.DoSession(session, seqNo, ops)
	if err != nil {
		return abortResponse(err, retries)
	}
	results := make([]kvapi.Result, len(res))
	var typedN, commuteN uint64
	for i, r := range res {
		results[i] = kvapi.Result{Val: r.Val, Found: r.Found}
		if ops[i].Kind.Typed() {
			typedN++
		}
		if r.Commuted {
			commuteN++
		}
	}
	if typedN > 0 && !dedup {
		s.countTyped(typedN, commuteN)
	}
	return kvapi.Response{Status: kvapi.StatusOK, Results: results, Retries: retries, DedupHit: dedup, CommuteHits: commuteN}
}

// countTyped feeds the committed attempt's typed/commute tallies into
// the metrics suite (the loop index spreads the stripes).
func (s *Server) countTyped(typed, commuted uint64) {
	for i := uint64(0); i < typed; i++ {
		s.suite.Metrics.TypedOp(i)
	}
	for i := uint64(0); i < commuted; i++ {
		s.suite.Metrics.CommuteHit(i)
	}
}

// doBegin opens an interactive transaction on the engine: it holds an
// admission slot until it commits, aborts, dies on a conflict, or the
// connection drops.
func (s *Server) doBegin(cs *connState, rv roleView) kvapi.Response {
	if cs.open() {
		return kvapi.Response{Status: kvapi.StatusError, Msg: "transaction already open on this connection"}
	}
	if rv.eng == nil {
		return s.redirectResponse(rv.advertise)
	}
	ok, hint := s.gate.acquire()
	if !ok {
		return busyResponse(hint)
	}
	s.sessions.Add(1)
	cs.stx = rv.eng.Begin()
	return kvapi.Response{Status: kvapi.StatusOK}
}

func (s *Server) doOp(cs *connState, req kvapi.Request) kvapi.Response {
	if !cs.open() {
		return kvapi.Response{Status: kvapi.StatusError, Msg: "no open transaction (send begin first)"}
	}
	if cs.ro != nil {
		return s.doOpRO(cs, req)
	}
	tx := cs.stx
	var r kvapi.Result
	var err error
	if req.Type == kvapi.MsgGet {
		r.Val, r.Found, err = tx.Get(req.Key)
	} else {
		err = tx.Put(req.Key, req.Val)
	}
	if err != nil {
		// The transaction died processing this operation (retry budget,
		// replay divergence): the session is over.
		retries := tx.Retries()
		s.endSession(cs)
		return abortResponse(err, retries)
	}
	return kvapi.Response{Status: kvapi.StatusOK, Results: []kvapi.Result{r}}
}

func (s *Server) doEnd(cs *connState, commit bool) kvapi.Response {
	if !cs.open() {
		return kvapi.Response{Status: kvapi.StatusError, Msg: "no open transaction"}
	}
	if cs.ro != nil {
		return s.doEndRO(cs, commit)
	}
	tx := cs.stx
	var err error
	if commit {
		err = tx.Commit()
	} else {
		// A requested abort "succeeds" whatever the substrate returned —
		// the transaction is gone either way.
		_ = tx.Abort()
	}
	retries := tx.Retries()
	s.endSession(cs)
	if err != nil {
		return abortResponse(err, retries)
	}
	return kvapi.Response{Status: kvapi.StatusOK, Retries: retries}
}

// endSession releases everything doBegin acquired.
func (s *Server) endSession(cs *connState) {
	cs.stx = nil
	s.gate.release()
	s.sessions.Add(-1)
}

func busyResponse(hint time.Duration) kvapi.Response {
	ms := uint32(hint / time.Millisecond)
	if ms == 0 {
		ms = 1
	}
	return kvapi.Response{Status: kvapi.StatusBusy, RetryAfterMs: ms,
		Msg: "admission control: transaction queue full"}
}

// abortResponse maps a transaction's terminal error onto the wire.
func abortResponse(err error, retries uint32) kvapi.Response {
	switch {
	case errors.Is(err, chaos.ErrRetriesExhausted):
		return kvapi.Response{Status: kvapi.StatusAborted, Retries: retries,
			Msg: "retry budget exhausted"}
	case errors.Is(err, shard.ErrReplayDiverged):
		return kvapi.Response{Status: kvapi.StatusAborted, Retries: retries,
			Msg: err.Error()}
	case errors.Is(err, shard.ErrClientAbort):
		return kvapi.Response{Status: kvapi.StatusOK, Retries: retries}
	case errors.Is(err, shard.ErrCoordCrashed):
		return kvapi.Response{Status: kvapi.StatusAborted, Retries: retries,
			Msg: err.Error()}
	default:
		return kvapi.Response{Status: kvapi.StatusError, Retries: retries, Msg: err.Error()}
	}
}

// Stop closes the listener and every connection, then waits for all
// handlers — and through them all open sessions — to finish. Safe to
// call more than once.
func (s *Server) Stop() {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for ln := range s.httpLns {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.stopPolling()
	s.replMu.RLock()
	eng, up := s.eng, s.upstream
	s.replMu.RUnlock()
	if eng != nil {
		_ = eng.Close() // a simulated-crash log refuses; that's fine
	}
	if up != nil {
		_ = up.Close()
	}
}

// Stats is the /stats snapshot.
type Stats struct {
	Substrate     string `json:"substrate"`
	Shards        int    `json:"shards,omitempty"`
	Commits       uint64 `json:"commits"`
	Aborts        uint64 `json:"aborts"`
	CrossCommits  uint64 `json:"cross_commits,omitempty"`
	CrossAborts   uint64 `json:"cross_aborts,omitempty"`
	Redos         uint64 `json:"redos,omitempty"`
	Sessions      int64  `json:"open_sessions"`
	InFlight      int    `json:"inflight"`
	Rejected      uint64 `json:"admission_rejected"`
	GroupBarriers uint64 `json:"group_barriers"`
	GroupSyncs    uint64 `json:"group_syncs"`
	RecoveredTxns int    `json:"recovered_txns"`
	SeededTxns    int    `json:"seeded_txns"`
	InDoubtFixed  int    `json:"in_doubt_resolved,omitempty"`
	WALCrashed    bool   `json:"wal_crashed"`

	// Exactly-once sessions and lease fencing.
	DedupHits  uint64 `json:"dedup_hits,omitempty"`
	LeaseEpoch uint64 `json:"lease_epoch,omitempty"`

	// Deterministic ordered commit (zero when the sequencer is off).
	SeqEpochs   uint64 `json:"seq_epochs,omitempty"`
	SeqBatched  uint64 `json:"seq_batched,omitempty"`
	SeqMaxBatch int    `json:"seq_max_batch,omitempty"`

	// Typed (commutativity-aware) operations executed and the subset
	// that shared an abstract lock with a commuting peer.
	TypedOps    uint64 `json:"ops_typed,omitempty"`
	CommuteHits uint64 `json:"ops_commute_hits,omitempty"`

	// Read-only snapshot transactions and the version store behind
	// them (zero when certification is disabled).
	ROCommits     uint64 `json:"ro_commits,omitempty"`
	ROAborts      uint64 `json:"ro_aborts,omitempty"`
	MVCCVersions  int64  `json:"mvcc_versions,omitempty"`
	MVCCSnapshots int64  `json:"mvcc_snapshots_open,omitempty"`
	MVCCWatermark uint64 `json:"mvcc_watermark,omitempty"`

	// Replicated serving (empty when unreplicated).
	Role       string            `json:"role,omitempty"`
	Epoch      uint64            `json:"epoch,omitempty"`
	ReplLag    map[string]uint64 `json:"repl_lag_records,omitempty"`
	Watermarks []repl.Cursor     `json:"repl_watermarks,omitempty"`
	ReplReads  uint64            `json:"repl_read_txns,omitempty"`
	Poisoned   bool              `json:"repl_poisoned,omitempty"`
}

// Stats snapshots the server.
func (s *Server) Stats() Stats {
	rv := s.roleView()
	st := Stats{
		Substrate: s.opts.Substrate, Role: rv.role,
		Sessions: s.sessions.Load(), InFlight: s.gate.inFlight(),
		Rejected:  s.gate.rejectedCount(),
		ROCommits: s.suite.Metrics.ROCommits(), ROAborts: s.suite.Metrics.ROAborts(),
		TypedOps: s.suite.Metrics.TypedOps(), CommuteHits: s.suite.Metrics.CommuteHits(),
	}
	var ms mvcc.Stats
	switch {
	case rv.eng != nil:
		es := rv.eng.Stats()
		st.Shards = es.Shards
		st.Commits, st.Aborts = es.Commits, es.Aborts
		st.CrossCommits, st.CrossAborts, st.Redos = es.CrossCommits, es.CrossAborts, es.Redos
		st.GroupBarriers, st.GroupSyncs = es.GroupBarriers, es.GroupSyncs
		st.RecoveredTxns, st.SeededTxns = es.RecoveredTxns, es.SeededTxns
		st.InDoubtFixed, st.WALCrashed = es.InDoubtFixed, es.WALCrashed
		st.DedupHits, st.LeaseEpoch = es.DedupHits, es.LeaseEpoch
		st.SeqEpochs, st.SeqBatched, st.SeqMaxBatch = es.SeqEpochs, es.SeqBatched, es.SeqMaxBatch
		st.Epoch = rv.eng.Epoch()
		ms = rv.eng.MVCCStats()
	case rv.replica != nil:
		rs := rv.replica.Stats()
		st.Shards = s.opts.Shards
		st.Epoch, st.ReplReads, st.Poisoned = rs.Epoch, rs.ReadTxns, rs.Poisoned
		st.ReplLag = s.ReplLag()
		for i, ss := range rs.Streams {
			st.Watermarks = append(st.Watermarks, ss.Watermark)
			// Commits counts committed branches folded onto the read
			// image (cross-shard txns count once per shard; the last
			// stream is the coordinator and is excluded).
			if i < s.opts.Shards {
				st.Commits += uint64(ss.Committed)
			}
		}
		ms = rv.replica.MVCCStats()
	}
	st.MVCCVersions = ms.Versions
	st.MVCCSnapshots = int64(ms.SnapshotsOpen)
	st.MVCCWatermark = ms.Watermark
	return st
}

// Suite exposes the observability suite (metrics handler, leak check).
func (s *Server) Suite() *obs.Suite { return s.suite }

// Engine exposes the engine the server serves through (nil only on a
// not-yet-promoted follower).
func (s *Server) Engine() *shard.Engine {
	s.replMu.RLock()
	defer s.replMu.RUnlock()
	return s.eng
}

// Backend exposes shard 0's substrate backend — a 1-shard server's only
// one (tests, probes); nil on a not-yet-promoted follower.
func (s *Server) Backend() backend.Backend {
	if eng := s.Engine(); eng != nil {
		return eng.Backend(0)
	}
	return nil
}

// GroupStats reports the commit-batching amortization counters.
func (s *Server) GroupStats() (barriers, syncs uint64) {
	if eng := s.Engine(); eng != nil {
		return eng.GroupStats()
	}
	return 0, 0
}

// DedupHits reports how many retried requests were answered from the
// engine's exactly-once table instead of re-executing.
func (s *Server) DedupHits() uint64 {
	if eng := s.Engine(); eng != nil {
		return eng.DedupHits()
	}
	return 0
}

// ShardImage returns the durable image (for simulated-crash restart
// through Options.RecoverFrom); nil on a not-yet-promoted follower.
func (s *Server) ShardImage() *shard.Image {
	if eng := s.Engine(); eng != nil {
		return eng.Image()
	}
	return nil
}

// ShardRecovered reports what startup recovery replayed and resolved.
func (s *Server) ShardRecovered() shard.MultiReport {
	if eng := s.Engine(); eng != nil {
		return eng.Recovered()
	}
	return shard.MultiReport{}
}

// WALCrashed reports whether the simulated process death fired.
func (s *Server) WALCrashed() bool {
	eng := s.Engine()
	return eng != nil && eng.Crashed()
}

// LeakCheck asserts quiescent cleanliness: no open sessions, no
// in-flight admissions, no unpopped spans, no leaked substrate locks.
// Call after Stop.
func (s *Server) LeakCheck() error {
	if n := s.sessions.Load(); n != 0 {
		return fmt.Errorf("server: %d interactive session(s) leaked", n)
	}
	if n := s.gate.inFlight(); n != 0 {
		return fmt.Errorf("server: %d admission slot(s) leaked", n)
	}
	if err := s.suite.LeakCheck(); err != nil {
		return err
	}
	if eng := s.Engine(); eng != nil {
		return eng.LeakCheck()
	}
	return nil // follower: no substrate of its own
}

// FinalCheck is the full post-run certificate. A serving server's is
// the engine's: per shard the shadow machine's final check, its
// invariants, commit-order serializability over the certified window,
// substrate conservation laws and WAL-hook health, plus the merged
// cross-shard order. A follower's is the full recovery certificate over
// its shipped bytes — exactly what a promotion would run.
func (s *Server) FinalCheck() error {
	rv := s.roleView()
	if rv.eng != nil {
		return rv.eng.FinalCheck()
	}
	if rv.replica != nil {
		if err := rv.replica.Poisoned(); err != nil {
			return err
		}
		_, err := rv.replica.Certify()
		return err
	}
	return nil
}
