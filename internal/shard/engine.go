package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pushpull/internal/backend"
	"pushpull/internal/chaos"
	"pushpull/internal/core"
	"pushpull/internal/mvcc"
	"pushpull/internal/obs"
	typedops "pushpull/internal/ops"
	"pushpull/internal/seq"
	"pushpull/internal/trace"
	"pushpull/internal/wal"
)

// view aliases the backend's transactional surface.
type view = backend.View

// Options configure an Engine.
type Options struct {
	// Shards is the partition count (default 1 — the degenerate engine
	// is a plain single-machine backend, and the one the server runs
	// when nothing asks for more).
	Shards int
	// Substrate selects the TM implementation on every shard.
	Substrate string
	// Keys sizes each shard's word-substrate register array.
	Keys int
	Seed int64
	// DisableCert drops the per-shard certifying shadow machines. The
	// WALs are written through them, so New refuses it with a WAL.
	DisableCert bool
	// Retry bounds substrate-level conflict retries (shared by all
	// shards).
	Retry *chaos.RetryPolicy
	// Plan, when non-nil, derives per-shard fault plans (Plan.ForShard)
	// and drives the coordinator death sites coord/prepared and
	// coord/commit on the engine's own injector.
	Plan *chaos.Plan
	// WALDir backs the per-shard WALs (WALDir/shard-NN/; flat in WALDir
	// itself at Shards == 1, see recover.go) and the coordinator log
	// (WALDir/coord.log); Durable keeps them in memory.
	WALDir       string
	Durable      bool
	SyncPolicy   wal.SyncPolicy
	SegmentBytes int
	// RecoverFrom supplies the durable image explicitly (the in-memory
	// restart path); it takes precedence over reading WALDir.
	RecoverFrom *Image
	// Suite receives all telemetry (default: a fresh obs.New()).
	Suite *obs.Suite
	// Epoch is the serving generation, forced into the coordinator log
	// at boot (cRecEpoch) so it replicates with the stream and survives
	// restart. Zero leaves the log unbranded; a replicated primary
	// passes 1, a promotion the predecessor's epoch + 1. Must exceed the
	// recovered image's epoch when both are present.
	Epoch uint64
	// AckCheck, when non-nil, runs after a transaction commits and
	// before its acknowledgment: a non-nil error withholds the ack (the
	// commit may be durable, but the client must treat the outcome as
	// unknown and retry). The lease gate hangs here: a primary whose
	// lease expired keeps committing locally but stops promising. So
	// does the in-process follower gate (repl.Gate), which acks only
	// once every follower has pulled the durable bytes. The TCP server
	// wires the lease alone — it acks before its followers poll, so a
	// write acked just before the primary dies can be missing from
	// every follower.
	AckCheck func() error
	// Seq routes cross-shard commits through the deterministic ordered
	// sequencer (internal/seq) instead of the mutex coordinator: GSNs
	// are assigned at admission, one batch record is forced per sealed
	// epoch, and per-shard executors release branch CMTs in GSN order —
	// commits on different shards proceed concurrently.
	Seq bool
	// BatchInterval stretches the sequencer's epoch accumulation window
	// (0 = pure adaptive group commit); SeqMaxBatch caps an epoch
	// (default 256).
	BatchInterval time.Duration
	SeqMaxBatch   int
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Substrate == "" {
		o.Substrate = "tl2"
	}
	if o.Keys <= 0 {
		o.Keys = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// shardState is one shard: its backend (machine + recorder), WAL, and
// group-commit barrier.
type shardState struct {
	id    int
	label string
	be    backend.Backend
	log   *wal.Log
	hook  *wal.MachineHook
	group *backend.GroupCommit
	seqB  *seqBarrier // name-aware barrier, sequenced engines only
	inj   *chaos.Faults
}

// Engine is the sharded Push/Pull engine.
type Engine struct {
	opts   Options
	suite  *obs.Suite
	router Router
	shards []*shardState
	stores []*mvcc.Store // per-shard version stores; nil when certification is disabled
	coord  *CoordLog
	inj    *chaos.Faults // coordinator-site injector (base plan)

	recovered MultiReport
	seeded    int

	seq atomic.Uint64

	// The mutex cross-shard commit phase is serialized: commitMu covers
	// the GSN assignment, the forced decision record, every branch CMT,
	// and the order bookkeeping. That makes each shard's cross-shard
	// commit subsequence literally equal to the GSN order — the
	// coordinator-imposed commit order the merged check certifies —
	// while single-shard transactions interleave freely (they cannot
	// create a cross-shard cycle: any such cycle needs two cross-shard
	// transactions ordered oppositely on two shards).
	//
	// With Options.Seq the sequencer replaces this mutex entirely: the
	// GSN is assigned at admission, the durable decision is one forced
	// batch record per epoch, and per-shard executors release CMTs in
	// GSN order — same certificate, held by construction instead of by
	// exclusion.
	commitMu sync.Mutex
	gsn      uint64
	seqr     *seq.Sequencer

	// orderMu guards the commit-order bookkeeping for both paths: the
	// mutex path appends under commitMu too, the sequenced path appends
	// coordOrder at the batch force and shardCross at each executor's
	// retire.
	orderMu    sync.Mutex
	coordOrder []string   // cross-shard commits in GSN order
	shardCross [][]string // per shard: cross-shard commits in local CMT order

	// The sequenced snapshot-cut gate: a Cut must not observe a batch
	// item on some participant shards but not others, so cuts wait out
	// in-flight releases (releasing) and block new batch dispatches
	// (cutters) while pinning. The mutex path gets the same atomicity
	// from commitMu.
	cutMu     sync.Mutex
	cutCond   *sync.Cond
	cutters   int
	releasing int

	crossCommits atomic.Uint64
	crossAborts  atomic.Uint64
	redoCount    atomic.Uint64
	killed       atomic.Bool
	fenced       atomic.Bool
	epoch        uint64

	// The exactly-once session table (see session.go).
	sessMu     sync.Mutex
	sess       map[uint64]sessEntry
	dedupHits  atomic.Uint64
	leaseEpoch atomic.Uint64

	errMu   sync.Mutex
	rollErr error // first roll-forward failure (fatal for certification)
}

// New builds the engine: multi-log recover-and-certify first, then every
// other refusal (key range, serving epoch), and only then is the old
// image archived. Then one backend per shard wired to its own WAL
// segment stream, trace recorder site, metrics label, and chaos plan,
// plus the coordinator log; finally each shard's certified state is
// re-applied and every resolved in-doubt branch is rolled forward. A
// failure after archiving restores the old image.
func New(opts Options) (_ *Engine, err error) {
	opts = opts.withDefaults()
	if opts.DisableCert && (opts.WALDir != "" || opts.Durable) {
		return nil, errors.New("shard: a WAL needs certification: the log is written by the certifying recorder, so an uncertified engine would acknowledge commits into an empty log")
	}
	suite := opts.Suite
	if suite == nil {
		suite = obs.New()
	}
	e := &Engine{
		opts: opts, suite: suite,
		router:     NewRouter(opts.Shards),
		shardCross: make([][]string, opts.Shards),
	}
	e.cutCond = sync.NewCond(&e.cutMu)
	if opts.Plan != nil {
		e.inj = opts.Plan.Injector()
		e.inj.SetObserver(func(site chaos.Site) { suite.Metrics.FaultFired(string(site)) })
	}
	retry := opts.Retry
	if retry == nil {
		retry = chaos.Default(opts.Seed)
	}
	if retry.OnRetry == nil {
		retry.OnRetry = suite.Metrics.RetryObserved
	}

	// Recovery before anything serves.
	img := opts.RecoverFrom
	if img == nil && opts.WALDir != "" {
		var found int
		img, found, err = ReadImageDir(opts.WALDir)
		if err != nil {
			return nil, err
		}
		if found == 0 && len(img.Coord) == 0 {
			img = nil
		} else if found != opts.Shards {
			return nil, fmt.Errorf("shard: durable image has %d shard log(s), engine configured for %d (restart with the original -shards)",
				found, opts.Shards)
		}
	}
	if !img.Empty() {
		if len(img.Shards) != opts.Shards {
			return nil, fmt.Errorf("shard: durable image has %d shard log(s), engine configured for %d (restart with the original -shards)",
				len(img.Shards), opts.Shards)
		}
		rep, err := RecoverAndCertifyImage(img, opts.Substrate)
		if err != nil {
			return nil, fmt.Errorf("shard: refusing to serve: %w", err)
		}
		for i, sr := range rep.Shards {
			if err := backend.CheckSeed(sr.Certified, opts.Keys); err != nil {
				return nil, fmt.Errorf("shard %d: refusing to serve: %w", i, err)
			}
		}
		e.recovered = rep
	}

	// The serving epoch branded into the coordinator log: a recovered
	// image's epoch must never be reused or regressed — promotions pass
	// predecessor+1.
	durable := opts.WALDir != "" || opts.Durable
	if durable {
		e.epoch = opts.Epoch
		if prev := e.recovered.Epoch; e.epoch > 0 && prev >= e.epoch {
			return nil, fmt.Errorf("shard: serving epoch %d does not exceed the recovered image's epoch %d",
				e.epoch, prev)
		}
	}

	// Every refusal above runs before the old image is archived; a
	// failure past this point puts it back, so the next boot recovers
	// the original image rather than a half-seeded fresh one.
	if opts.WALDir != "" {
		var archived string
		if archived, err = archiveImageDir(opts.WALDir); err != nil {
			return nil, err
		}
		defer func() {
			if err != nil {
				e.Close()
				if uerr := unarchiveImageDir(opts.WALDir, archived); uerr != nil {
					err = fmt.Errorf("%w; restoring the archived image: %v", err, uerr)
				}
			}
		}()
	}

	for i := 0; i < opts.Shards; i++ {
		st := &shardState{id: i, label: strconv.Itoa(i)}
		e.shards = append(e.shards, st) // before its log opens: a failed boot's Close must reach it
		var inj *chaos.Faults
		if opts.Plan != nil {
			p := opts.Plan.ForShard(i, opts.Shards)
			inj = p.Injector()
			inj.SetObserver(func(site chaos.Site) { suite.Metrics.FaultFired(string(site)) })
			st.inj = inj
		}
		if durable {
			dir := ""
			if opts.WALDir != "" {
				dir = shardWALDir(opts.WALDir, i, opts.Shards)
				if err := os.MkdirAll(dir, 0o755); err != nil {
					return nil, fmt.Errorf("shard: creating %s: %w", dir, err)
				}
			}
			// The log never fsyncs inside Append, which the machine hook
			// calls under substrate commit locks: under SyncOnCommit the
			// shard's group-commit leader forces it at the commit barrier,
			// outside every lock, after the CMT record is appended and
			// before the client is acknowledged, so concurrent committers
			// share one fsync.
			log, err := wal.Open(wal.Options{
				Dir: dir, SegmentBytes: opts.SegmentBytes, Policy: opts.SyncPolicy,
				Chaos: inj, SyncObserver: suite.Metrics.WALSyncObserved,
			})
			if err != nil {
				return nil, fmt.Errorf("shard %d: opening WAL: %w", i, err)
			}
			st.log = log
			st.group = backend.NewGroupCommit(log)
		} else {
			st.group = backend.NewGroupCommit(nil)
		}
		// Sequenced engines interpose the name-aware barrier: a released
		// branch's CMT skips the per-commit force (the epoch's batch
		// record already carries its decision and write-set), everything
		// else still rides the shard's group commit.
		var durableBarrier core.Durable = st.group
		if opts.Seq && durable {
			st.seqB = newSeqBarrier(st.group)
			durableBarrier = st.seqB
		}
		be, err := backend.NewBackend(backend.Config{
			Substrate: opts.Substrate, Keys: opts.Keys,
			Seed:        opts.Seed + int64(i)*7919,
			DisableCert: opts.DisableCert, Injector: inj, Retry: retry,
			Durable: durableBarrier,
		})
		if err != nil {
			return nil, err
		}
		st.be = be
		if rec := be.Recorder(); rec != nil {
			if st.log != nil {
				st.hook = wal.NewMachineHook(st.log)
				rec.AttachWAL(st.hook)
			}
			rec.SetSite(opts.Substrate + "/s" + st.label)
			rec.AttachSink(suite)
		}
		if store := be.Snapshots(); store != nil {
			store.SetObserver(suite.Metrics)
			e.stores = append(e.stores, store)
		}
	}

	if durable {
		coordPath := ""
		if opts.WALDir != "" {
			coordPath = filepath.Join(opts.WALDir, coordLogName)
		}
		coord, err := OpenCoordLog(coordPath)
		if err != nil {
			return nil, fmt.Errorf("shard: opening coordinator log: %w", err)
		}
		e.coord = coord
		// Brand the serving epoch into the log so it replicates with
		// the stream and survives restart.
		if e.epoch > 0 {
			if err := coord.AppendEpoch(e.epoch); err != nil {
				return nil, fmt.Errorf("shard: branding epoch: %w", err)
			}
		}
	}

	// Re-apply each shard's certified state as fresh certified (and
	// re-logged) transactions, then roll forward every resolved branch.
	for i, rep := range e.recovered.Shards {
		n, err := e.shards[i].be.Seed(rep.Certified, fmt.Sprintf("recover-s%d", i))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		e.seeded += n
	}
	for _, r := range e.recovered.Redos {
		if err := e.applyRedo(e.shards[r.Shard], "redo-"+r.Name, r.Puts); err != nil {
			return nil, fmt.Errorf("shard %d: rolling forward %q: %w", r.Shard, r.Name, err)
		}
		e.seeded++
	}
	if err := e.seedSessions(); err != nil {
		return nil, err
	}
	if opts.Seq && opts.Shards > 1 {
		e.seqr = seq.New(seq.Options{
			Shards:        opts.Shards,
			BatchInterval: opts.BatchInterval,
			MaxBatch:      opts.SeqMaxBatch,
			Force:         e.seqForce,
			Gate:          e.seqGate,
			Retire:        e.seqRetire,
			Done:          e.seqDone,
			Observer:      suite.Metrics,
		})
	}
	return e, nil
}

// Seq reports whether the deterministic ordered-commit path is active.
func (e *Engine) Seq() bool { return e.seqr != nil }

// SeqStats returns the sequencer census (zero when the mutex
// coordinator is active).
func (e *Engine) SeqStats() seq.Stats {
	if e.seqr == nil {
		return seq.Stats{}
	}
	return e.seqr.Stats()
}

// Shards returns the partition count.
func (e *Engine) Shards() int { return e.opts.Shards }

// Router returns the key router.
func (e *Engine) Router() Router { return e.router }

// Recovered reports what startup recovery replayed and resolved.
func (e *Engine) Recovered() MultiReport { return e.recovered }

// SeededTxns reports how many checkpoint transactions start-up seeding
// ran (recovered state plus roll-forwards).
func (e *Engine) SeededTxns() int { return e.seeded }

// Epoch returns the serving generation branded into the coordinator
// log (0 for an unbranded, non-replicating engine).
func (e *Engine) Epoch() uint64 { return e.epoch }

// Streams returns the replication stream count: one per shard plus the
// coordinator log (the last stream index, CoordStream).
func (e *Engine) Streams() int { return e.opts.Shards + 1 }

// CoordStream returns the coordinator log's stream index.
func (e *Engine) CoordStream() int { return e.opts.Shards }

// Fence marks this engine fenced off by a higher serving epoch: the
// coordinator log refuses further decisions and Do refuses new (and
// in-flight not-yet-acked) transactions with ErrFenced. Safe to call
// while transactions run — an ack gate calls it when a follower's
// replica refuses this engine's epoch, which is how a zombie primary
// learns of its successor.
func (e *Engine) Fence(epoch uint64) {
	if e.epoch > 0 && epoch <= e.epoch {
		return
	}
	e.fenced.Store(true)
	if e.coord != nil {
		e.coord.Fence(epoch)
	}
}

// Fenced reports whether the engine has been fenced off.
func (e *Engine) Fenced() bool { return e.fenced.Load() }

// Kill applies the simulated process death now: every log freezes at
// its own durable prefix (the failover drills' murder weapon).
func (e *Engine) Kill() { e.killAll() }

// StreamAppends counts durable records on one replication stream — the
// primary-side counter the replication lag gauge compares a replica's
// applied count against. Lazily buffered records (unforced coordinator
// CEnd markers, unsynced batches) are excluded until they sync: the
// gauge measures distance from what the primary has promised, not from
// what it merely intends.
func (e *Engine) StreamAppends(stream int) uint64 {
	if stream == e.opts.Shards {
		if e.coord == nil {
			return 0
		}
		return e.coord.DurableRecords()
	}
	if stream < 0 || stream >= len(e.shards) || e.shards[stream].log == nil {
		return 0
	}
	return e.shards[stream].log.DurableRecords()
}

// ReadDurable reads up to max durable bytes of one replication stream
// at (seg, off) — the wire-poll path (kvapi MsgReplPoll) into the
// per-log tailing APIs. The coordinator stream has a single segment.
func (e *Engine) ReadDurable(stream, seg, off, max int) (data []byte, next, more bool, err error) {
	if stream == e.opts.Shards {
		if e.coord == nil {
			return nil, false, false, errors.New("shard: no coordinator log (engine is not durable)")
		}
		if seg != 0 {
			return nil, false, false, fmt.Errorf("shard: coordinator stream has one segment, not %d", seg)
		}
		data, more, err = e.coord.DurableAt(off, max)
		return data, false, more, err
	}
	if stream < 0 || stream >= len(e.shards) {
		return nil, false, false, fmt.Errorf("shard: no stream %d (have %d)", stream, e.Streams())
	}
	if e.shards[stream].log == nil {
		return nil, false, false, errors.New("shard: stream has no WAL (engine is not durable)")
	}
	return e.shards[stream].log.DurableAt(seg, off, max)
}

// enter/exit move the per-shard in-flight gauge.
func (e *Engine) enter(st *shardState) { e.suite.Metrics.ShardInflightAdd(st.label, 1) }
func (e *Engine) exit(st *shardState)  { e.suite.Metrics.ShardInflightAdd(st.label, -1) }

// noteCrash propagates one shard's simulated WAL death to the whole
// engine: a process dies once, so every other log freezes at its own
// durable prefix.
func (e *Engine) noteCrash(st *shardState) {
	if st.log != nil && st.log.Crashed() {
		e.killAll()
	}
}

// killAll freezes every log at its durable prefix (simulated process
// death). In-memory execution continues — the post-crash tail is
// simply not durable, and recovery certifies the durable prefix.
func (e *Engine) killAll() {
	if e.killed.Swap(true) {
		return
	}
	for _, st := range e.shards {
		if st.log != nil {
			st.log.Kill()
		}
	}
	if e.coord != nil {
		e.coord.Kill()
	}
}

// Crashed reports whether the simulated process death fired.
func (e *Engine) Crashed() bool {
	if e.killed.Load() {
		return true
	}
	for _, st := range e.shards {
		if st.log != nil && st.log.Crashed() {
			return true
		}
	}
	return e.coord != nil && e.coord.Crashed()
}

// Image snapshots the durable on-"disk" state (for simulated-crash
// restart): every shard's surviving segments plus the coordinator log.
func (e *Engine) Image() *Image {
	img := &Image{Shards: make([][][]byte, len(e.shards))}
	for i, st := range e.shards {
		if st.log != nil {
			img.Shards[i] = st.log.Segments()
		}
	}
	if e.coord != nil {
		img.Coord = e.coord.Image()
	}
	return img
}

// Close closes every log (no-op for crashed ones). The sequencer
// drains first so no executor releases a CMT into a closing log.
func (e *Engine) Close() error {
	if e.seqr != nil {
		e.seqr.Close()
	}
	var first error
	for _, st := range e.shards {
		if st.log != nil {
			if err := st.log.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if e.coord != nil {
		if err := e.coord.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ErrFenced reports a transaction refused — or a commit deliberately
// not acknowledged — because the engine learned of a higher serving
// epoch. A fenced engine's state is a dead branch: the new primary's
// certified image is the truth, and acking here would invent a
// committed transaction failover cannot preserve.
var ErrFenced = errors.New("shard: fenced by a higher serving epoch; not acknowledged")

// ErrAckUnknown wraps every withheld acknowledgement — fencing, lease
// expiry, replication lag — so clients can recognize an AMBIGUOUS
// outcome (the commit may be durable but was never acked) and retry it
// under the same session sequence number.
var ErrAckUnknown = errors.New("shard: commit state unknown")

// Do executes ops as one one-shot transaction: directly on the home
// shard when the footprint is single-shard, through the two-phase
// coordinator otherwise. Returns the results, the retry count, and the
// terminal error (nil means committed and acknowledged).
func (e *Engine) Do(ops []Op) ([]Result, uint32, error) {
	res, retries, err := e.do(ops, nil)
	if err == nil {
		if aerr := e.ackGate(); aerr != nil {
			return nil, retries, aerr
		}
	}
	return res, retries, err
}

// do commits ops without the ack gate — DoSession needs the raw commit
// outcome so it can record the session entry even when the ack is
// withheld.
func (e *Engine) do(ops []Op, sess *sessInfo) ([]Result, uint32, error) {
	if e.fenced.Load() {
		return nil, 0, ErrFenced
	}
	parts, participants := partition(ops, e.router)
	if participants > 1 {
		for _, op := range ops {
			// A qpop's write-set cannot be journaled as a logical
			// effect (which element it removed depends on execution
			// order), so the roll-forward evidence cross-shard commits
			// rely on cannot cover it.
			if op.Kind == OpQPop {
				return nil, 0, fmt.Errorf("shard: %v unsupported in cross-shard transactions", op.Kind)
			}
		}
	}
	var res []Result
	var retries uint32
	var err error
	if participants <= 1 {
		sid := 0
		for s, p := range parts {
			if p != nil {
				sid = s
			}
		}
		res, retries, err = e.doSingle(sid, ops, sess)
	} else if e.seqr != nil {
		res, retries, err = e.doCrossSeq(parts, len(ops), sess)
	} else {
		res, retries, err = e.doCross(parts, len(ops), sess)
	}
	return res, retries, err
}

// ackGate decides whether a locally committed transaction may be
// acknowledged: not when the engine was fenced mid-flight (a follower
// refused our epoch — the write may be in the local image, but that
// image is now a dead branch), and not when the configured AckCheck
// (lease validity, follower catch-up) says no. Either way the client
// is told "commit state unknown" and retries; the session table makes
// the retry safe.
func (e *Engine) ackGate() error {
	if e.fenced.Load() {
		return fmt.Errorf("%w: %w", ErrAckUnknown, ErrFenced)
	}
	if e.opts.AckCheck != nil {
		if err := e.opts.AckCheck(); err != nil {
			return fmt.Errorf("%w: %w", ErrAckUnknown, err)
		}
	}
	return nil
}

// doSingle runs a one-shot whose footprint is one shard directly on
// that shard's backend: one Atomic, no branch goroutine, no
// coordinator.
func (e *Engine) doSingle(sid int, ops []Op, sess *sessInfo) ([]Result, uint32, error) {
	st := e.shards[sid]
	name := fmt.Sprintf("t%d", e.seq.Add(1))
	e.enter(st)
	defer e.exit(st)
	results := make([]Result, len(ops))
	attempts := uint32(0)
	err := st.be.Atomic(name, func(v view) error {
		attempts++
		for i, op := range ops {
			switch op.Kind {
			case OpGet:
				val, found, err := v.Get(op.Key)
				if err != nil {
					return err
				}
				results[i] = Result{Val: val, Found: found}
			case OpPut:
				if err := v.Put(op.Key, op.Val); err != nil {
					return err
				}
				results[i] = Result{}
			default:
				val, commuted, err := typedDo(v, op.Kind, op.Key, op.Val, op.Arg)
				if err != nil {
					return err
				}
				results[i] = Result{Val: val, Found: true, Commuted: commuted}
			}
		}
		// The session record rides the shard's own WAL just before the
		// commit record this callback's return triggers: durable prefix
		// being a prefix, commit durable implies session entry durable.
		// A retried attempt re-appends it (same name — idempotent in the
		// recovery fold); an aborted attempt leaves an orphan record the
		// conditional fold discards.
		if sess != nil && st.log != nil {
			if err := st.log.Append(wal.Record{
				Type: wal.TSession, Tx: sess.session,
				Session: sess.session, SeqNo: sess.seq, Name: name,
				Results: sessResultsOf(results),
			}); err != nil && !errors.Is(err, wal.ErrCrashed) {
				return err
			}
		}
		return nil
	})
	e.noteCrash(st)
	retries := uint32(0)
	if attempts > 0 {
		retries = attempts - 1
	}
	if err != nil {
		return nil, retries, err
	}
	return results, retries, nil
}

// doCross runs the two-phase path: a branch per participant shard,
// prepare (PUSH everywhere), then the coordinated decision.
func (e *Engine) doCross(parts [][]opAt, nops int, sess *sessInfo) ([]Result, uint32, error) {
	name := fmt.Sprintf("x%d", e.seq.Add(1))
	var branches []*branch
	for sid, p := range parts {
		if p == nil {
			continue
		}
		st := e.shards[sid]
		b := newBranch(st, name, newDecision(), false)
		e.enter(st)
		go b.run()
		branches = append(branches, b)
	}
	results := make([]Result, nops)

	// Phase 1 — prepare: feed each branch its ops and park it on its
	// decision, concurrently across shards.
	if prepErr := e.feedBranches(parts, branches, results); prepErr != nil {
		e.finishCross(branches)
		e.crossAborts.Add(1)
		return nil, e.maxRetries(branches), prepErr
	}

	// Phase 2 — the coordinated CMT.
	if err := e.commitCross(name, branches, sess, results); err != nil {
		e.crossAborts.Add(1)
		return nil, e.maxRetries(branches), err
	}
	e.crossCommits.Add(1)
	return results, e.maxRetries(branches), nil
}

// feedBranches feeds every branch its ops and parks each on its
// decision (prepare), concurrently across shards; the first error
// wins. Shared by the mutex and sequenced cross paths.
func (e *Engine) feedBranches(parts [][]opAt, branches []*branch, results []Result) error {
	feedCh := make(chan error, len(branches))
	for _, b := range branches {
		go func(b *branch, ops []opAt) {
			for _, oa := range ops {
				c := cmd{key: oa.op.Key, val: oa.op.Val, arg: oa.op.Arg, idx: oa.idx}
				switch oa.op.Kind {
				case OpGet:
					c.kind = cmdGet
				case OpPut:
					c.kind = cmdPut
				default:
					c.kind = cmdTyped
					c.opKind = oa.op.Kind
				}
				r, err := b.send(c)
				if err != nil {
					feedCh <- err
					return
				}
				results[r.idx] = Result{Val: r.val, Found: r.found, Commuted: r.commuted}
			}
			feedCh <- b.prepare()
		}(b, parts[b.st.id])
	}
	var prepErr error
	for range branches {
		if err := <-feedCh; err != nil && prepErr == nil {
			prepErr = err
		}
	}
	return prepErr
}

// finishCross publishes an abort on every undecided branch and reaps
// them all: abandon both unblocks a branch still parked in its op loop
// (closing cmds) and drains a decision-parked or already dead one.
// decide is idempotent, so branches already released stay released.
func (e *Engine) finishCross(branches []*branch) {
	for _, b := range branches {
		b.dec.decide(false)
	}
	for _, b := range branches {
		_ = b.abandon()
		e.exit(b.st)
		e.noteCrash(b.st)
	}
}

// commitCross is the coordinated commit: under commitMu it assigns the
// GSN, forces the decision record into the coordinator log, fires the
// coordinator death sites, releases every branch's CMT, rolls forward
// any branch that dies after the decision, and appends the completion
// marker. Every prepared branch either commits or is redone; on a
// pre-decision coordinator crash the transaction aborts consistently.
func (e *Engine) commitCross(name string, branches []*branch, sess *sessInfo, results []Result) error {
	e.commitMu.Lock()
	// Death between prepare and the durable decision: no CCommit record
	// survives, so recovery presumes abort — and so does the in-memory
	// path, keeping both worlds consistent.
	if e.inj != nil && e.inj.Fire(chaos.SiteCoordPrepared) {
		e.killAll()
	}
	crec := CommitRec{GSN: e.gsn + 1, Name: name}
	for _, b := range branches {
		crec.Branches = append(crec.Branches, BranchRec{Shard: b.st.id, Puts: b.puts()})
	}
	var decideErr error
	if e.coord != nil {
		// The session entry rides (unforced) immediately before the
		// forced decision, so the decision's sync makes both durable in
		// order: CCommit durable implies session entry durable, and an
		// entry without its CCommit is discarded by the conditional fold.
		if sess != nil {
			if err := e.coord.AppendSession(SessionRec{
				Session: sess.session, SeqNo: sess.seq, Name: name,
				Results: sessResultsOf(results),
			}, false); err != nil && !errors.Is(err, ErrCoordCrashed) && !errors.Is(err, ErrCoordFenced) {
				decideErr = err
			}
		}
		if decideErr == nil {
			decideErr = e.coord.AppendCommit(crec)
		}
	}
	if decideErr != nil {
		// The decision never became durable (crashed or failing
		// coordinator log) — global abort.
		e.commitMu.Unlock()
		e.finishCross(branches)
		if errors.Is(decideErr, ErrCoordCrashed) {
			return fmt.Errorf("%w: coordinator died before the commit decision", decideErr)
		}
		return fmt.Errorf("shard: journaling commit decision: %w", decideErr)
	}
	// Death after the durable decision: recovery will roll the
	// transaction forward from the record, so the in-memory path
	// commits it too (the branch CMTs just miss the durable prefix).
	if e.inj != nil && e.inj.Fire(chaos.SiteCoordCommit) {
		e.killAll()
	}
	e.gsn = crec.GSN
	for _, b := range branches {
		b.dec.decide(true)
	}
	for _, b := range branches {
		err := b.wait()
		if err != nil {
			// The decision is final; a branch that could not retire its
			// prepared transaction (retry budget on post-decision
			// conflicts) is rolled forward from its journaled write-set —
			// the same redo recovery applies.
			if rerr := e.applyRedo(b.st, "redo-"+name, b.puts()); rerr != nil {
				e.setRollErr(fmt.Errorf("shard %d: rolling forward %q: %w", b.st.id, name, rerr))
			}
			e.redoCount.Add(1)
		}
		e.exit(b.st)
	}
	// Suppress the completion marker when a shard WAL died during the
	// commit phase: its branch CMT never became durable, so CEnd would
	// claim completeness the image cannot honor. Recovery tolerates a
	// durable CEnd with missing branches regardless (the lazy append can
	// ride a later forced sync past the shard's death), but keeping the
	// marker honest shrinks that window to the truly asynchronous case.
	ended := true
	for _, b := range branches {
		if b.st.log != nil && b.st.log.Crashed() {
			ended = false
			break
		}
	}
	if e.coord != nil && ended {
		_ = e.coord.AppendEnd(crec.GSN)
	}
	e.orderMu.Lock()
	e.coordOrder = append(e.coordOrder, name)
	for _, b := range branches {
		e.shardCross[b.st.id] = append(e.shardCross[b.st.id], name)
	}
	e.orderMu.Unlock()
	e.commitMu.Unlock()
	for _, b := range branches {
		e.noteCrash(b.st)
	}
	return nil
}

// applyRedo re-applies a write-set as one fresh certified transaction.
// The decision it rolls forward is already final (durable CCommit), so
// a retry-budget exhaustion under contention or chaos is not a
// permitted outcome — the attempt loops with a fresh budget until the
// write-set lands or the substrate fails for a non-retryable reason.
func (e *Engine) applyRedo(st *shardState, name string, puts []KV) error {
	if len(puts) == 0 {
		return nil
	}
	for {
		err := e.applyRedoOnce(st, name, puts)
		if !errors.Is(err, chaos.ErrRetriesExhausted) {
			return err
		}
	}
}

func (e *Engine) applyRedoOnce(st *shardState, name string, puts []KV) error {
	return st.be.Atomic(name, func(v view) error {
		for _, kv := range puts {
			if kv.Method == typedops.WPut {
				if err := v.Put(kv.Key, kv.Val); err != nil {
					return err
				}
				continue
			}
			// Logical-op entry: replay the operation, not a final
			// value — a redo racing a concurrent add folds both.
			if _, _, err := typedDo(v, kv.Method.Code(), kv.Key, kv.Val, 0); err != nil {
				return err
			}
		}
		return nil
	})
}

func (e *Engine) setRollErr(err error) {
	e.errMu.Lock()
	if e.rollErr == nil {
		e.rollErr = err
	}
	e.errMu.Unlock()
}

func (e *Engine) maxRetries(branches []*branch) uint32 {
	var max uint32
	for _, b := range branches {
		if r := b.retries; r > max {
			max = r
		}
	}
	return max
}

// Stats is the engine snapshot.
type Stats struct {
	Shards        int    `json:"shards"`
	Commits       uint64 `json:"commits"`
	Aborts        uint64 `json:"aborts"`
	CrossCommits  uint64 `json:"cross_commits"`
	CrossAborts   uint64 `json:"cross_aborts"`
	Redos         uint64 `json:"redos"`
	GroupBarriers uint64 `json:"group_barriers"`
	GroupSyncs    uint64 `json:"group_syncs"`
	RecoveredTxns int    `json:"recovered_txns"`
	SeededTxns    int    `json:"seeded_txns"`
	InDoubtFixed  int    `json:"in_doubt_resolved"`
	WALCrashed    bool   `json:"wal_crashed"`
	DedupHits     uint64 `json:"dedup_hits"`
	LeaseEpoch    uint64 `json:"lease_epoch"`
	// Sequencer shape (zero when the mutex coordinator is active).
	SeqEpochs   uint64 `json:"seq_epochs,omitempty"`
	SeqBatched  uint64 `json:"seq_batched,omitempty"`
	SeqMaxBatch int    `json:"seq_max_batch,omitempty"`
	// SeqUnforced counts branch CMTs whose per-commit force was skipped
	// because the epoch's batch record already covered them.
	SeqUnforced uint64 `json:"seq_unforced,omitempty"`
}

// Stats sums substrate and coordinator counters across shards.
func (e *Engine) Stats() Stats {
	s := Stats{
		Shards:        e.opts.Shards,
		CrossCommits:  e.crossCommits.Load(),
		CrossAborts:   e.crossAborts.Load(),
		Redos:         e.redoCount.Load(),
		RecoveredTxns: e.recovered.RecoveredTxns(),
		SeededTxns:    e.seeded,
		InDoubtFixed:  e.recovered.InDoubtResolved,
		WALCrashed:    e.Crashed(),
		DedupHits:     e.dedupHits.Load(),
		LeaseEpoch:    e.leaseEpoch.Load(),
	}
	if e.seqr != nil {
		ss := e.seqr.Stats()
		s.SeqEpochs, s.SeqBatched, s.SeqMaxBatch = ss.Epochs, ss.Batched, ss.MaxBatch
		for _, st := range e.shards {
			if st.seqB != nil {
				s.SeqUnforced += st.seqB.skipped.Load()
			}
		}
	}
	for _, st := range e.shards {
		c, a := st.be.Stats()
		s.Commits += c
		s.Aborts += a
		gb, gs := st.group.Stats()
		s.GroupBarriers += gb
		s.GroupSyncs += gs
	}
	return s
}

// GroupStats sums the per-shard group-commit amortization counters.
func (e *Engine) GroupStats() (barriers, syncs uint64) {
	for _, st := range e.shards {
		b, s := st.group.Stats()
		barriers += b
		syncs += s
	}
	return
}

// ReadKey reads one key non-transactionally from its home shard —
// quiescent test verification only.
func (e *Engine) ReadKey(key uint64) (int64, bool) {
	return e.shards[e.router.Shard(key)].be.ReadKey(key)
}

// Backend exposes one shard's backend (tests).
func (e *Engine) Backend(i int) backend.Backend { return e.shards[i].be }

// LeakCheck asserts quiescent cleanliness on every shard.
func (e *Engine) LeakCheck() error {
	for _, st := range e.shards {
		if err := st.be.LeakCheck(); err != nil {
			return fmt.Errorf("shard %d: %w", st.id, err)
		}
	}
	return nil
}

// FinalCheck is the full post-run certificate: per shard the shadow
// recorder's final check (commit-order serializability, machine
// invariants, every violation) — plus the cross-shard obligations:
// every shard's cross-commit subsequence must equal the coordinator's
// GSN order, the union of all orders must merge acyclically, and no
// roll-forward may have failed.
func (e *Engine) FinalCheck() error {
	if err := e.rollError(); err != nil {
		return err
	}
	for _, st := range e.shards {
		if err := st.be.CheckInvariant(); err != nil {
			return fmt.Errorf("shard %d: %w", st.id, err)
		}
		if st.hook != nil {
			if err := st.hook.Err(); err != nil {
				return fmt.Errorf("shard %d: WAL hook: %w", st.id, err)
			}
		}
		rec := st.be.Recorder()
		if rec == nil {
			continue
		}
		if err := rec.FinalCheck(); err != nil {
			return fmt.Errorf("shard %d: %w", st.id, err)
		}
	}
	return e.checkCrossOrder()
}

func (e *Engine) rollError() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.rollErr
}

// checkCrossOrder verifies the runtime cross-shard commit order: each
// shard's cross-commit sequence must equal the coordinator's GSN order
// restricted to that shard's participations, and the union of all
// chains must merge into one total order.
func (e *Engine) checkCrossOrder() error {
	e.orderMu.Lock()
	defer e.orderMu.Unlock()
	// Restriction check: exact by construction (commits happen under
	// commitMu), so any mismatch is a real ordering bug.
	pos := make(map[string]int, len(e.coordOrder))
	for i, n := range e.coordOrder {
		pos[n] = i
	}
	for sid, chain := range e.shardCross {
		last := -1
		for _, n := range chain {
			p, ok := pos[n]
			if !ok {
				return fmt.Errorf("shard %d: cross-shard commit %q missing from coordinator order", sid, n)
			}
			if p <= last {
				return fmt.Errorf("shard %d: cross-shard commit %q out of coordinator (GSN) order", sid, n)
			}
			last = p
		}
	}
	chains := append(append([][]string(nil), e.shardCross...), e.coordOrder)
	if _, err := MergeOrders(chains); err != nil {
		return err
	}
	return nil
}

// Recorders returns each shard's certification recorder in shard
// order (entries are nil when certification is disabled) — offline
// history capture and replay.
func (e *Engine) Recorders() []*trace.Recorder {
	out := make([]*trace.Recorder, len(e.shards))
	for i, st := range e.shards {
		out[i] = st.be.Recorder()
	}
	return out
}

// FaultStats sums injector activity across the coordinator and every
// shard (chaos campaigns).
func (e *Engine) FaultStats() chaos.Stats {
	out := chaos.Stats{Counts: make(map[chaos.Site]chaos.SiteCount)}
	add := func(f *chaos.Faults) {
		if f == nil {
			return
		}
		for site, c := range f.Stats().Counts {
			t := out.Counts[site]
			t.Visits += c.Visits
			t.Injected += c.Injected
			out.Counts[site] = t
		}
	}
	add(e.inj)
	for _, st := range e.shards {
		add(st.inj)
	}
	return out
}

// CrossOrders returns copies of the coordinator's GSN order and each
// shard's local cross-commit order (tests, fuzzing).
func (e *Engine) CrossOrders() (coord []string, perShard [][]string) {
	e.orderMu.Lock()
	defer e.orderMu.Unlock()
	coord = append([]string(nil), e.coordOrder...)
	perShard = make([][]string, len(e.shardCross))
	for i, c := range e.shardCross {
		perShard[i] = append([]string(nil), c...)
	}
	return
}
