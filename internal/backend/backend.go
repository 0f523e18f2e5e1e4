// Package backend adapts each Push/Pull substrate (tl2, pess, boost,
// htmsim, dep, hybrid) behind one transactional KV surface: Get/Put
// over a uint64 key space, certified against the shadow machine and
// write-ahead logged through an optional commit barrier.
//
// Word substrates map keys onto their register array (key mod Keys);
// boosting-based substrates use a boosted Map keyed by the full key.
// The hybrid backend additionally runs one HTM section per transaction
// incrementing a commit counter word — the Section 7 shape, giving
// smoke tests a cross-substrate conservation invariant.
//
// The engine (internal/shard) builds one backend per shard on this
// package — the only thing the server serves through; group.go's
// GroupCommit batches each shard's WAL commit barriers across
// concurrent committers.
package backend

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"pushpull/internal/adt"
	"pushpull/internal/chaos"
	"pushpull/internal/core"
	"pushpull/internal/mvcc"
	"pushpull/internal/ops"
	"pushpull/internal/spec"
	"pushpull/internal/stm/boost"
	"pushpull/internal/stm/dep"
	"pushpull/internal/stm/htmsim"
	"pushpull/internal/stm/hybrid"
	"pushpull/internal/stm/pess"
	"pushpull/internal/stm/tl2"
	"pushpull/internal/trace"
)

// View is what a transaction body sees: transactional reads and writes
// over the service's key space. Errors must be returned unmodified to
// the enclosing Atomic — they carry the substrate's conflict/retry
// semantics.
type View interface {
	Get(key uint64) (val int64, found bool, err error)
	Put(key uint64, val int64) error
}

// TypedView extends View with typed-operation execution (internal/ops
// codes). Every backend view implements it: boosting-based substrates
// run typed ops natively on the boosted typed keyspace, where
// commuting ops share their cells' abstract locks (commuted reports a
// sharing hit); word substrates emulate the counter family as register
// read-modify-write on the same register array (fully conflicting,
// never commuted) and reject the set/queue families.
type TypedView interface {
	View
	Typed(code ops.Code, key uint64, a, b int64) (ret int64, commuted bool, err error)
}

// Backend runs atomic transactions on one substrate.
type Backend interface {
	// Substrate names the implementation (tl2, pess, ...).
	Substrate() string
	// Atomic runs fn transactionally. The substrate retries its own
	// conflicts (bounded by the retry policy); any foreign error aborts
	// the transaction — undo applied, locks released, shadow session
	// rewound — and is returned as-is.
	Atomic(name string, fn func(View) error) error
	// Seed re-applies the certified state of a recovered prefix
	// (recovery.Report.Certified) as fresh certified transactions (the
	// restart checkpoint), returning how many transactions it ran.
	// prefix names the seeding transactions ("<prefix>-0",
	// "<prefix>-1", ...); sharded engines pass a shard-qualified prefix
	// so seed names stay globally unique for the merged commit-order
	// check.
	Seed(c spec.Composite, prefix string) (int, error)
	// Stats returns substrate commit/abort counters.
	Stats() (commits, aborts uint64)
	// Recorder is the certifying shadow machine (nil when certification
	// is disabled).
	Recorder() *trace.Recorder
	// LeakCheck asserts quiescent cleanliness (no abstract locks held).
	LeakCheck() error
	// CheckInvariant asserts substrate-specific conservation laws
	// (hybrid: HTM commit counter equals committed transactions).
	CheckInvariant() error
	// ReadKey reads one key non-transactionally — quiescent test
	// verification only.
	ReadKey(key uint64) (int64, bool)
	// Snapshots returns the multi-version store (with its read
	// certifier) fed from this backend's certified commit stream — the
	// substrate for read-only snapshot transactions. Nil when
	// certification is disabled (no recorder means no committed-log
	// fold to serve from).
	Snapshots() *mvcc.Store
	// TypedState serializes the committed typed keyspace in the
	// canonical adt.TypedKV format — quiescent verification against a
	// spec-side replay (empty string on substrates without typed
	// cells).
	TypedState() string
}

// mvccState carries the version store; every concrete backend embeds
// it so the MVCC seam is uniform across substrates.
type mvccState struct {
	mv *mvcc.Store
}

func (m *mvccState) Snapshots() *mvcc.Store { return m.mv }

// attachMVCC builds the version store and subscribes its applier to
// the certifying recorder's event stream. The store is then a second
// fold of exactly the log the WAL and metrics see.
func (m *mvccState) attachMVCC(substrate string, keys int, rec *trace.Recorder) {
	if rec == nil {
		return
	}
	m.mv = mvcc.NewStore(mvcc.ModeFor(substrate), keys)
	rec.AttachSink(mvcc.NewApplier(m.mv))
}

// Config configures a backend.
type Config struct {
	Substrate string
	// Keys sizes the word substrates' register array (and bounds their
	// address mapping). Boost/hybrid maps ignore it.
	Keys int
	Seed int64
	// DisableCert drops the certifying shadow machine — raw-throughput
	// mode. The zero value is the certified one on purpose.
	DisableCert bool
	// Injector, when non-nil, threads server-side chaos into the
	// substrate's fault sites and the WAL.
	Injector *chaos.Faults
	// Retry bounds substrate-level conflict retries.
	Retry *chaos.RetryPolicy
	// Durable, when non-nil, is the commit barrier (normally the
	// group-commit wrapper over the WAL).
	Durable core.Durable
}

// RegistryFor returns the certification registry a substrate's
// transactions are checked against — and the one its recovered WAL
// must re-certify under.
func RegistryFor(substrate string) (*spec.Registry, error) {
	reg := spec.NewRegistry()
	switch substrate {
	case "tl2", "pess", "htmsim", "dep":
		reg.Register("mem", adt.Register{})
	case "boost":
		reg.Register("ht", adt.Map{})
		reg.Register(ops.Obj, adt.TypedKV{})
	case "hybrid":
		reg.Register("ht", adt.Map{})
		reg.Register("htm", adt.Register{})
		reg.Register(ops.Obj, adt.TypedKV{})
	default:
		return nil, fmt.Errorf("backend: unknown substrate %q", substrate)
	}
	return reg, nil
}

// Substrates lists the accepted backend names.
func Substrates() []string {
	return []string{"tl2", "pess", "boost", "htmsim", "dep", "hybrid"}
}

// mvccAttacher is satisfied by every concrete backend through the
// embedded mvccState.
type mvccAttacher interface {
	attachMVCC(substrate string, keys int, rec *trace.Recorder)
}

// NewBackend builds the substrate backend for cfg and, when certified,
// attaches the multi-version snapshot store to its commit stream.
func NewBackend(cfg Config) (Backend, error) {
	if cfg.Keys <= 0 {
		cfg.Keys = 64
	}
	bk, err := newBackend(cfg)
	if err != nil {
		return nil, err
	}
	bk.(mvccAttacher).attachMVCC(cfg.Substrate, cfg.Keys, bk.Recorder())
	return bk, nil
}

// newBackend builds the raw substrate backend.
func newBackend(cfg Config) (Backend, error) {
	var rec *trace.Recorder
	if !cfg.DisableCert {
		reg, err := RegistryFor(cfg.Substrate)
		if err != nil {
			return nil, err
		}
		rec = trace.NewRecorder(reg)
	}
	switch cfg.Substrate {
	case "tl2":
		m := tl2.New(cfg.Keys)
		m.Recorder, m.Retry, m.Durable = rec, cfg.Retry, cfg.Durable
		if cfg.Injector != nil {
			m.Injector = cfg.Injector
		}
		return &wordBackend{
			name: "tl2", keys: cfg.Keys, rec: rec,
			atomic: func(name string, fn func(wordTx) error) error {
				return m.AtomicNamed(name, func(tx *tl2.Tx) error { return fn(tx) })
			},
			read:  m.ReadNoTx,
			stats: func() (uint64, uint64) { s := m.Stats(); return s.Commits, s.Aborts },
		}, nil
	case "pess":
		m := pess.New(cfg.Keys)
		m.Recorder, m.Retry, m.Durable = rec, cfg.Retry, cfg.Durable
		if cfg.Injector != nil {
			m.Injector = cfg.Injector
		}
		return &wordBackend{
			name: "pess", keys: cfg.Keys, rec: rec,
			atomic: func(name string, fn func(wordTx) error) error {
				return m.AtomicNamed(name, func(tx *pess.Tx) error { return fn(tx) })
			},
			read:  m.ReadNoTx,
			stats: func() (uint64, uint64) { s := m.Stats(); return s.Commits, s.Aborts },
		}, nil
	case "htmsim":
		h := htmsim.New(cfg.Keys)
		h.Name = "mem"
		h.Recorder, h.Retry, h.Durable = rec, cfg.Retry, cfg.Durable
		if cfg.Injector != nil {
			h.Injector = cfg.Injector
		}
		return &wordBackend{
			name: "htmsim", keys: cfg.Keys, rec: rec,
			atomic: func(name string, fn func(wordTx) error) error {
				return h.Atomic(name, func(tx *htmsim.Tx) error { return fn(tx) })
			},
			read: h.ReadNoTx,
			stats: func() (uint64, uint64) {
				s := h.Stats()
				return s.Commits, s.ConflictAborts + s.CapacityAborts
			},
		}, nil
	case "dep":
		m := dep.New(cfg.Keys)
		m.Recorder, m.Retry, m.Durable = rec, cfg.Retry, cfg.Durable
		if cfg.Injector != nil {
			m.Injector = cfg.Injector
		}
		return &wordBackend{
			name: "dep", keys: cfg.Keys, rec: rec,
			atomic: func(name string, fn func(wordTx) error) error {
				return m.Atomic(name, func(tx *dep.Tx) error { return fn(tx) })
			},
			read:  m.ReadNoTx,
			stats: func() (uint64, uint64) { s := m.Stats(); return s.Commits, s.Aborts },
		}, nil
	case "boost":
		rt := boost.NewRuntime()
		rt.Recorder, rt.Retry, rt.Durable = rec, cfg.Retry, cfg.Durable
		if cfg.Injector != nil {
			rt.Injector = cfg.Injector
		}
		return &boostBackend{
			rt: rt, ht: boost.NewMap(rt, "ht", cfg.Seed),
			typed: boost.NewTyped(rt, ops.Obj), rec: rec,
		}, nil
	case "hybrid":
		b := boost.NewRuntime()
		b.Recorder, b.Retry, b.Durable = rec, cfg.Retry, cfg.Durable
		if cfg.Injector != nil {
			b.Injector = cfg.Injector
		}
		h := htmsim.New(4)
		h.Name = "htm"
		if cfg.Injector != nil {
			h.Injector = cfg.Injector
		}
		rt := hybrid.New(b, h)
		rt.Durable = cfg.Durable
		return &hybridBackend{
			b: b, h: h, rt: rt, rec: rec,
			ht:    boost.NewMap(b, "ht", cfg.Seed),
			typed: boost.NewTyped(b, ops.Obj),
		}, nil
	default:
		return nil, fmt.Errorf("backend: unknown substrate %q", cfg.Substrate)
	}
}

// ---- word substrates (tl2, pess, htmsim, dep) ----

// wordTx is the read/write surface all four word substrates share.
type wordTx interface {
	Read(addr int) (int64, error)
	Write(addr int, val int64) error
}

type wordBackend struct {
	mvccState
	name   string
	keys   int
	rec    *trace.Recorder
	atomic func(name string, fn func(wordTx) error) error
	read   func(addr int) int64
	stats  func() (commits, aborts uint64)
}

// wordView maps the service key space onto the register array. Every
// key "exists" (registers default to zero), so Found is always true.
type wordView struct {
	tx   wordTx
	keys int
}

func (v wordView) addr(key uint64) int { return int(key % uint64(v.keys)) }

func (v wordView) Get(key uint64) (int64, bool, error) {
	x, err := v.tx.Read(v.addr(key))
	return x, err == nil, err
}

func (v wordView) Put(key uint64, val int64) error {
	return v.tx.Write(v.addr(key), val)
}

// Typed emulates the counter family as register read-modify-write —
// semantically faithful but fully conflicting (no commute classes on a
// word substrate, so commuted is always false; the benchmark contrast
// lives here). The set/queue families have no register encoding and
// are rejected.
func (v wordView) Typed(code ops.Code, key uint64, a, b int64) (int64, bool, error) {
	addr := v.addr(key)
	switch code {
	case ops.Add:
		r, err := v.tx.Read(addr)
		if err != nil {
			return 0, false, err
		}
		return 0, false, v.tx.Write(addr, r+a)
	case ops.CGet:
		r, err := v.tx.Read(addr)
		return r, false, err
	case ops.Wd:
		if a < 0 {
			return 0, false, fmt.Errorf("backend: wd of negative amount %d", a)
		}
		r, err := v.tx.Read(addr)
		if err != nil {
			return 0, false, err
		}
		if r < a {
			// The partial boundary surfaces as an abort on this
			// substrate: there is no pending-deposit escrow to wait on.
			return 0, false, fmt.Errorf("backend: wd %d below balance %d: %w", a, r, chaos.ErrRetriesExhausted)
		}
		return 0, false, v.tx.Write(addr, r-a)
	case ops.CAS:
		r, err := v.tx.Read(addr)
		if err != nil {
			return 0, false, err
		}
		if r == a {
			if err := v.tx.Write(addr, b); err != nil {
				return 0, false, err
			}
		}
		return r, false, nil
	default:
		return 0, false, fmt.Errorf("backend: op %d unsupported on a word substrate", code)
	}
}

func (b *wordBackend) Substrate() string         { return b.name }
func (b *wordBackend) Recorder() *trace.Recorder { return b.rec }
func (b *wordBackend) LeakCheck() error          { return nil }
func (b *wordBackend) CheckInvariant() error     { return nil }
func (b *wordBackend) TypedState() string        { return "" }

func (b *wordBackend) Stats() (uint64, uint64) { return b.stats() }

func (b *wordBackend) Atomic(name string, fn func(View) error) error {
	return b.atomic(name, func(tx wordTx) error {
		return fn(wordView{tx: tx, keys: b.keys})
	})
}

func (b *wordBackend) ReadKey(key uint64) (int64, bool) {
	return b.read(int(key % uint64(b.keys))), true
}

func (b *wordBackend) Seed(c spec.Composite, prefix string) (int, error) {
	list, _, err := seedImage(c, b.keys)
	if err != nil {
		return 0, err
	}
	return seed(list, prefix, b.Atomic)
}

// ---- boosting ----

type boostBackend struct {
	mvccState
	rt    *boost.Runtime
	ht    *boost.Map
	typed *boost.Typed
	rec   *trace.Recorder
}

type boostView struct {
	ht    *boost.Map
	typed *boost.Typed
	tx    *boost.Txn
}

func (v boostView) Get(key uint64) (int64, bool, error) {
	return v.ht.Get(v.tx, int64(key))
}

func (v boostView) Put(key uint64, val int64) error {
	_, _, err := v.ht.Put(v.tx, int64(key), val)
	return err
}

func (v boostView) Typed(code ops.Code, key uint64, a, b int64) (int64, bool, error) {
	return v.typed.Do(v.tx, code, key, a, b)
}

func (b *boostBackend) Substrate() string         { return "boost" }
func (b *boostBackend) Recorder() *trace.Recorder { return b.rec }
func (b *boostBackend) LeakCheck() error          { return b.rt.LeakCheck() }
func (b *boostBackend) CheckInvariant() error     { return nil }
func (b *boostBackend) TypedState() string        { return b.typed.Dump() }

func (b *boostBackend) Stats() (uint64, uint64) {
	s := b.rt.Stats()
	return s.Commits, s.Aborts
}

func (b *boostBackend) Atomic(name string, fn func(View) error) error {
	return b.rt.Atomic(name, func(tx *boost.Txn) error {
		return fn(boostView{ht: b.ht, typed: b.typed, tx: tx})
	})
}

func (b *boostBackend) ReadKey(key uint64) (int64, bool) {
	return b.ht.Base().Get(int64(key))
}

func (b *boostBackend) Seed(c spec.Composite, prefix string) (int, error) {
	list, _, err := seedImage(c, 0)
	if err != nil {
		return 0, err
	}
	return seed(list, prefix, b.Atomic)
}

// ---- hybrid (Section 7: boosting + HTM sections) ----

type hybridBackend struct {
	mvccState
	b     *boost.Runtime
	h     *htmsim.HTM
	rt    *hybrid.Runtime
	ht    *boost.Map
	typed *boost.Typed
	rec   *trace.Recorder

	// ctrBase is the HTM counter value restored at seed time; ctrTxns
	// counts client transactions committed since. Their sum is the
	// conservation invariant on word 0.
	ctrBase int64
	ctrTxns atomic.Uint64
}

type hybridView struct {
	ht    *boost.Map
	typed *boost.Typed
	tx    *hybrid.Tx
}

func (v hybridView) Get(key uint64) (int64, bool, error) {
	return v.ht.Get(v.tx.Boosted(), int64(key))
}

func (v hybridView) Put(key uint64, val int64) error {
	_, _, err := v.ht.Put(v.tx.Boosted(), int64(key), val)
	return err
}

func (v hybridView) Typed(code ops.Code, key uint64, a, b int64) (int64, bool, error) {
	return v.typed.Do(v.tx.Boosted(), code, key, a, b)
}

func (b *hybridBackend) Substrate() string         { return "hybrid" }
func (b *hybridBackend) Recorder() *trace.Recorder { return b.rec }
func (b *hybridBackend) LeakCheck() error          { return b.b.LeakCheck() }
func (b *hybridBackend) TypedState() string        { return b.typed.Dump() }

func (b *hybridBackend) Stats() (uint64, uint64) {
	s := b.rt.Stats()
	return s.Commits, s.Boost.Aborts
}

// Atomic runs the KV ops boosted and appends one HTM section bumping
// the commit-counter word — every committed transaction increments it
// exactly once, across speculation, fallback, and degradation.
func (b *hybridBackend) Atomic(name string, fn func(View) error) error {
	err := b.rt.Atomic(name, func(tx *hybrid.Tx) error {
		tx.HTMSection(func(htx *htmsim.Tx) error {
			v, err := htx.Read(0)
			if err != nil {
				return err
			}
			return htx.Write(0, v+1)
		})
		return fn(hybridView{ht: b.ht, typed: b.typed, tx: tx})
	})
	if err == nil {
		b.ctrTxns.Add(1)
	}
	return err
}

func (b *hybridBackend) ReadKey(key uint64) (int64, bool) {
	return b.ht.Base().Get(int64(key))
}

// CheckInvariant is the conservation law: the HTM counter must equal
// the seeded base plus one increment per committed client transaction.
// Quiescent only (counter and tally are read separately).
func (b *hybridBackend) CheckInvariant() error {
	want := b.ctrBase + int64(b.ctrTxns.Load())
	if got := b.h.ReadNoTx(0); got != want {
		return fmt.Errorf("backend: hybrid counter=%d, want %d (base %d + %d commits): lost updates",
			got, want, b.ctrBase, b.ctrTxns.Load())
	}
	return nil
}

// Seed restores the recovered image through the boosting runtime, then
// the HTM counter word through one hybrid transaction — the counter
// survives restart, so the commit tally is conserved across crashes.
func (b *hybridBackend) Seed(c spec.Composite, prefix string) (int, error) {
	list, ctr, err := seedImage(c, 0)
	if err != nil {
		return 0, err
	}
	txns, err := seed(list, prefix, func(name string, fn func(View) error) error {
		return b.b.Atomic(name, func(tx *boost.Txn) error {
			return fn(boostView{ht: b.ht, typed: b.typed, tx: tx})
		})
	})
	if err != nil || ctr == 0 {
		return txns, err
	}
	err = b.rt.Atomic(prefix+"-ctr", func(tx *hybrid.Tx) error {
		tx.HTMSection(func(htx *htmsim.Tx) error {
			if _, err := htx.Read(0); err != nil {
				return err
			}
			return htx.Write(0, ctr)
		})
		return nil
	})
	if err != nil {
		return txns, fmt.Errorf("backend: seeding recovered counter: %w", err)
	}
	b.ctrBase = ctr
	return txns + 1, nil
}

// ---- restart seeding from a certified state ----

// FoldKV projects a certified recovered state onto the service's KV
// surface — what a client must be able to read back after restart: the
// register image of "mem" on word substrates (addresses are the key
// space modulo Keys), the map image of "ht" on boosting-based ones.
func FoldKV(c spec.Composite) map[uint64]int64 {
	var img map[int64]int64
	if s, ok := c.StateOf("mem"); ok {
		img, _ = adt.RegisterImage(s)
	} else if s, ok := c.StateOf("ht"); ok {
		img, _ = adt.MapImage(s)
	}
	out := make(map[uint64]int64, len(img))
	for k, v := range img {
		out[uint64(k)] = v
	}
	return out
}

// CheckSeed reports whether a certified state can seed a backend of
// keys registers — the refusal Seed would hit, checked before anything
// on disk moves.
func CheckSeed(c spec.Composite, keys int) error {
	_, _, err := seedImage(c, keys)
	return err
}

// seedImage reads the restart image out of a certified state: the KV
// image as puts, then every typed cell rebuilt through the operations
// that define it — counters by one add, sets by one sadd per member,
// queues by pushes in order, and empty-but-present cells (whose sticky
// kind must survive) by a do-undo pair (sadd+srem, qpush+qpop) — so the
// runtime state, the shadow machine and the MVCC fold all agree with
// the pre-crash spec state. ctr is hybrid's HTM counter word. A
// register address outside [0, keys) is refused: the image was written
// under a larger key range.
func seedImage(c spec.Composite, keys int) (list []ops.Op, ctr int64, err error) {
	kv := FoldKV(c)
	_, word := c.StateOf("mem")
	for _, k := range sortedKeys(kv) {
		if word && k >= uint64(keys) {
			return nil, 0, fmt.Errorf("backend: recovered address %d outside key range %d (restart with the original -keys)", k, keys)
		}
		list = append(list, ops.Op{Kind: ops.Put, Key: k, Val: kv[k]})
	}
	if s, ok := c.StateOf(ops.Obj); ok {
		cells, _ := adt.FoldTypedKV(s)
		for _, k := range sortedKeys(cells.Counters) {
			list = append(list, ops.Op{Kind: ops.Add, Key: uint64(k), Val: cells.Counters[k]})
		}
		for _, k := range sortedKeys(cells.Sets) {
			if len(cells.Sets[k]) == 0 {
				list = append(list, ops.Op{Kind: ops.SAdd, Key: uint64(k)}, ops.Op{Kind: ops.SRem, Key: uint64(k)})
			}
			for _, m := range cells.Sets[k] {
				list = append(list, ops.Op{Kind: ops.SAdd, Key: uint64(k), Val: m})
			}
		}
		for _, k := range sortedKeys(cells.Queues) {
			if len(cells.Queues[k]) == 0 {
				list = append(list, ops.Op{Kind: ops.QPush, Key: uint64(k)}, ops.Op{Kind: ops.QPop, Key: uint64(k)})
			}
			for _, v := range cells.Queues[k] {
				list = append(list, ops.Op{Kind: ops.QPush, Key: uint64(k), Val: v})
			}
		}
	}
	if s, ok := c.StateOf("htm"); ok {
		words, _ := adt.RegisterImage(s)
		ctr = words[0]
	}
	return list, ctr, nil
}

// seed runs list as fresh certified transactions of at most 16 ops,
// named prefix-0, prefix-1, ...: htmsim's speculative capacity bounds
// one transaction's footprint, and smaller transactions keep the
// certified checkpoint cheap everywhere.
func seed(list []ops.Op, prefix string, atomic func(name string, fn func(View) error) error) (int, error) {
	const chunk = 16
	txns := 0
	for lo := 0; lo < len(list); lo += chunk {
		part := list[lo:min(lo+chunk, len(list))]
		err := atomic(fmt.Sprintf("%s-%d", prefix, txns), func(v View) error {
			for _, op := range part {
				var err error
				if op.Kind == ops.Put {
					err = v.Put(op.Key, op.Val)
				} else {
					_, _, err = v.(TypedView).Typed(op.Kind, op.Key, op.Val, op.Arg)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return txns, fmt.Errorf("backend: seeding recovered state: %w", err)
		}
		txns++
	}
	return txns, nil
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
