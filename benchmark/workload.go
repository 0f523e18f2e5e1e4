package main

import (
	"fmt"
	"math/rand"

	"pushpull/internal/kvapi"
	"pushpull/internal/shard"
)

// opsPerTxn is fixed across workloads so that a latency difference
// between two of them is never a difference in transaction size.
const opsPerTxn = 3

// workload is one server configuration plus one traffic mix.
type workload struct {
	Name string
	Why  string

	// Server side.
	Substrate string
	Shards    int
	Keys      int // server.Options.Keys (per-shard register array on tl2)

	// Traffic.
	KeySpace int     // client keys are drawn from [0, KeySpace)
	Zipf     float64 // exponent of the key draw
	ROPct    int     // share of declared read-only snapshot transactions, a multiple of 10
	CrossPct int     // share of read-write transactions forced across >= 2 shards
	Typed    bool    // incr:80 cget:10 cas:10 on counter cells, not get/put
}

// Every workload carries a read-only slice: the driver contract wants
// every end-to-end metric on every workload and never zero, so ro_* is
// measured everywhere — 90% where snapshot reads are the point, 10%
// elsewhere, which is enough to see a write-path change tax readers on
// each server shape.
var workloads = []workload{
	{
		Name:      "rw-single",
		Why:       "default path: tl2, 1 shard, 1024 keys, get/put zipf 1.1; substrate + shadow certifier + WAL group commit do the work, shards and typed ops idle",
		Substrate: "tl2", Shards: 1, Keys: 1024,
		KeySpace: 1024, Zipf: 1.1, ROPct: 10,
	},
	{
		Name:      "ro-snapshot",
		Why:       "tl2, 4 shards, 90% declared read-only: kvapi framing, dispatch and mvcc snapshot reads dominate, certifier runs only for the 10% writers",
		Substrate: "tl2", Shards: 4, Keys: 1024,
		KeySpace: 1024, Zipf: 1.1, ROPct: 90, CrossPct: 10,
	},
	{
		Name:      "cross-shard",
		Why:       "tl2, 4 shards, half of the writers span >= 2 shards: prepare/commit, the coordinator-log force and multi-log recovery dominate",
		Substrate: "tl2", Shards: 4, Keys: 1024,
		KeySpace: 1024, Zipf: 1.1, ROPct: 10, CrossPct: 50,
	},
	{
		Name:      "hot-typed",
		Why:       "boost, 64 keys, incr/cget/cas on 32 hot counters at zipf 1.4: abstract locks under commute classes and logical-op WAL records, no word substrate",
		Substrate: "boost", Shards: 1, Keys: 64,
		KeySpace: 32, Zipf: 1.4, ROPct: 10, Typed: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// txn is one generated transaction.
type txn struct {
	Ops      []kvapi.Op
	ReadOnly bool // sent with DoReadOnly
	Cross    bool // spans >= 2 shards under shard.ShardOf
}

// generator is the benchmark's own seeded transaction source. It is
// deliberately not kvapi.RunLoad: that is program code, and a later
// change to it must not move the measurement.
type generator struct {
	w    workload
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int // transactions drawn so far
}

// clientSeed is the stream id of client i under a run seed (clients of
// later trials count on from numClients); the probes draw from an id no
// client uses.
func clientSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

const probeStream = 999

// preloadSeed makes the preload the same database under every run seed:
// restart time and the pace of the server afterwards depend on what the
// log holds, so a seeded preload would put input variance into restart_s
// and setup_s, which time the program, not the traffic. The run seed
// varies the traffic.
const preloadSeed = -1

func newGenerator(w workload, seed int64) *generator {
	rng := rand.New(rand.NewSource(seed))
	return &generator{w: w, rng: rng, zipf: rand.NewZipf(rng, w.Zipf, 1, uint64(w.KeySpace-1))}
}

func (g *generator) key() uint64 { return g.zipf.Uint64() }

// next draws one transaction of the workload's mix. The class follows a
// fixed pattern — of every ten transactions the first ROPct/10 are
// read-only — so that the mix is exact in every window and only keys and
// operations are left to the seed.
func (g *generator) next() txn {
	i := g.n
	g.n++
	if i%10 < g.w.ROPct/10 {
		return g.readOnly()
	}
	return g.readWrite()
}

// nextRW draws until it gets a read-write transaction — the preload
// and the write-path probes want only that class.
func (g *generator) nextRW() txn {
	for {
		if t := g.next(); !t.ReadOnly {
			return t
		}
	}
}

func (g *generator) readOnly() txn {
	kind := kvapi.OpGet
	if g.w.Typed {
		kind = kvapi.OpCGet
	}
	ops := make([]kvapi.Op, opsPerTxn)
	for i := range ops {
		ops[i] = kvapi.Op{Kind: kind, Key: g.key()}
	}
	return txn{Ops: ops, ReadOnly: true}
}

func (g *generator) readWrite() txn {
	keys, cross := g.keys()
	ops := make([]kvapi.Op, opsPerTxn)
	for i, k := range keys {
		ops[i] = g.op(k)
	}
	return txn{Ops: ops, Cross: cross}
}

// keys draws one read-write footprint. Against a sharded server the
// draw is shaped with the same key-to-shard function the server routes
// by: CrossPct percent of footprints span at least two shards, the rest
// stay on the first key's home shard.
func (g *generator) keys() ([]uint64, bool) {
	keys := make([]uint64, opsPerTxn)
	for i := range keys {
		keys[i] = g.key()
	}
	n := g.w.Shards
	if n <= 1 {
		return keys, false
	}
	home := shard.ShardOf(keys[0], n)
	if g.rng.Intn(100) < g.w.CrossPct {
		last := len(keys) - 1
		for shard.ShardOf(keys[last], n) == home {
			keys[last] = g.key()
		}
		return keys, true
	}
	for i := 1; i < len(keys); i++ {
		for shard.ShardOf(keys[i], n) != home {
			keys[i] = g.key()
		}
	}
	return keys, false
}

func (g *generator) op(key uint64) kvapi.Op {
	if !g.w.Typed {
		if g.rng.Intn(2) == 0 {
			return kvapi.Op{Kind: kvapi.OpGet, Key: key}
		}
		return kvapi.Op{Kind: kvapi.OpPut, Key: key, Val: g.rng.Int63n(1 << 20)}
	}
	switch r := g.rng.Intn(100); {
	case r < 80:
		return kvapi.Op{Kind: kvapi.OpAdd, Key: key, Val: 1}
	case r < 90:
		return kvapi.Op{Kind: kvapi.OpCGet, Key: key}
	default:
		// Small operands so that a share of the CASes succeed.
		return kvapi.Op{Kind: kvapi.OpCAS, Key: key, Val: g.rng.Int63n(4), Arg: g.rng.Int63n(4)}
	}
}

// model is the expected committed state after a sequential stream of
// transactions: the blind get/put cells and the typed counter cells,
// which are disjoint key spaces on the server too.
type model struct {
	kv       map[uint64]int64
	counters map[uint64]int64
}

func newModel() *model {
	return &model{kv: map[uint64]int64{}, counters: map[uint64]int64{}}
}

// apply folds one committed transaction into the model and checks the
// values the server answered against it. It is only sound for
// transactions that ran one at a time.
func (m *model) apply(t txn, res []kvapi.Result) error {
	if len(res) != len(t.Ops) {
		return fmt.Errorf("%d results for %d ops", len(res), len(t.Ops))
	}
	for i, op := range t.Ops {
		var want int64
		checked := true
		switch op.Kind {
		case kvapi.OpGet:
			want = m.kv[op.Key]
		case kvapi.OpPut:
			m.kv[op.Key] = op.Val
			checked = false // the overwritten value's presence differs by substrate
		case kvapi.OpAdd:
			m.counters[op.Key] += op.Val
			checked = false
		case kvapi.OpCGet:
			want = m.counters[op.Key]
		case kvapi.OpCAS:
			want = m.counters[op.Key]
			if want == op.Val {
				m.counters[op.Key] = op.Arg
			}
		default:
			return fmt.Errorf("op %v is not generated by this benchmark", op.Kind)
		}
		if checked && res[i].Val != want {
			return fmt.Errorf("op %d (%v key %d) answered %d, model says %d", i, op.Kind, op.Key, res[i].Val, want)
		}
	}
	return nil
}

// readBack returns read-only-style transactions that read every cell
// the model holds, with the values they must answer.
func (m *model) readBack() (txns []txn, want [][]int64) {
	add := func(kind kvapi.OpKind, cells map[uint64]int64) {
		var t txn
		var w []int64
		for _, k := range sortedKeys(cells) {
			t.Ops = append(t.Ops, kvapi.Op{Kind: kind, Key: k})
			w = append(w, cells[k])
			if len(t.Ops) == 16 {
				txns, want = append(txns, t), append(want, w)
				t, w = txn{}, nil
			}
		}
		if len(t.Ops) > 0 {
			txns, want = append(txns, t), append(want, w)
		}
	}
	add(kvapi.OpGet, m.kv)
	add(kvapi.OpCGet, m.counters)
	return txns, want
}
