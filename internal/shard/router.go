// Package shard is the hash-partitioned Push/Pull engine: N
// independent core.Machines (one substrate backend, WAL segment
// stream, trace recorder, and metrics label per shard) behind one
// transactional KV surface.
//
// Single-shard transactions run unchanged on their home shard — the
// paper's PUSH/PULL/CMT side conditions are phrased per operation
// against one shared log G, so a transaction whose footprint lives in
// one partition needs only that partition's log. Cross-shard
// transactions go through a two-phase coordinator (coord.go,
// engine.go): prepare is a PUSH of every operation on its participant
// shard, commit is a coordinated CMT on all of them, journaled in a
// small coordinator log so recovery can resolve in-doubt transactions
// (recover.go). Certification generalizes accordingly: each shard's
// shadow machine replays and certifies its own log exactly as before,
// and a merged-commit-order check (order.go) proves the coordinator's
// global order embeds every shard's local commit order — the
// cross-shard serializability obligation.
package shard

import "pushpull/internal/ops"

// ShardOf maps a key to its home shard among n by a splitmix64
// finalizer — a pure function of (key, n), so the placement is stable
// across processes, restarts, and routers. Keys spread uniformly even
// when the client key space is dense small integers.
//
// The ops.KeyBit fold namespace is masked off first: a typed counter's
// MVCC cell (KeyBit|k) is a per-shard artifact of the typed operations
// on k, so a read of the cell key itself routes to k's home shard, the
// one that folds it. Client keys never carry the bit (kvapi refuses
// them).
func ShardOf(key uint64, n int) int {
	if n <= 1 {
		return 0
	}
	h := key &^ ops.KeyBit
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % uint64(n))
}

// Router routes keys among N shards.
type Router struct{ N int }

// NewRouter builds a router over n shards (minimum 1).
func NewRouter(n int) Router {
	if n < 1 {
		n = 1
	}
	return Router{N: n}
}

// Shard returns key's home shard.
func (r Router) Shard(key uint64) int { return ShardOf(key, r.N) }

// OpKind discriminates engine operations: it is ops.Code, the same
// type the wire decodes into.
type OpKind = ops.Code

// Operation kinds. OpAdd and beyond are the typed
// (commutativity-aware) operations executed on boosted ADT cells.
const (
	OpGet   = ops.Get
	OpPut   = ops.Put
	OpAdd   = ops.Add
	OpCGet  = ops.CGet
	OpWd    = ops.Wd
	OpCAS   = ops.CAS
	OpSAdd  = ops.SAdd
	OpSRem  = ops.SRem
	OpSCont = ops.SCont
	OpQPush = ops.QPush
	OpQPop  = ops.QPop
)

// Op is one engine operation — the wire's decoded op, executed as is
// (kvapi.Op names the same type).
type Op = ops.Op

// Result answers one Op (Put results are zero). Commuted marks a typed
// op that acquired its abstract lock in a shared commute class.
type Result struct {
	Val      int64
	Found    bool
	Commuted bool
}

// opAt carries an op with its index in the client's op list, so a
// branch can write its answers into the shared result slice directly.
type opAt struct {
	op  Op
	idx int
}

// partition splits ops by home shard, preserving per-shard op order.
// The returned slice is indexed by shard id; non-participants are nil.
func partition(ops []Op, r Router) ([][]opAt, int) {
	parts := make([][]opAt, r.N)
	participants := 0
	for i, op := range ops {
		s := r.Shard(op.Key)
		if parts[s] == nil {
			participants++
		}
		parts[s] = append(parts[s], opAt{op: op, idx: i})
	}
	return parts, participants
}
