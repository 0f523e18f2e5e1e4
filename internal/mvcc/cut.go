package mvcc

import (
	"fmt"

	"pushpull/internal/ops"
)

// Cut is one read-only transaction over one store per shard: a pinned
// snapshot of each, the router that sends a key to its store, and the
// log of every read it answered. It takes no lock and no retry budget
// (the read-only class cannot conflict), but its answers are released
// only after Certify. A Cut is not safe for concurrent use.
type Cut struct {
	shardOf func(uint64) int
	snaps   []*Snapshot
	reads   [][]readObs
}

// Pin snapshots every store. The caller makes the pins one consistent
// cut (the engine's commit gate, the replica's lock) and must Close
// the result.
func Pin(stores []*Store, shardOf func(uint64) int) *Cut {
	c := &Cut{shardOf: shardOf, snaps: make([]*Snapshot, len(stores)), reads: make([][]readObs, len(stores))}
	for i, st := range stores {
		c.snaps[i] = st.Snapshot()
	}
	return c
}

// read answers key k from shard sid's snapshot and logs the chain key
// it consulted.
func (c *Cut) read(sid int, k uint64) (int64, bool) {
	sn := c.snaps[sid]
	val, found := sn.Get(k)
	c.reads[sid] = append(c.reads[sid], readObs{key: sn.st.slot(k), val: val, found: found})
	return val, found
}

// Get reads key at the cut, from its home shard's snapshot.
func (c *Cut) Get(key uint64) (int64, bool) {
	return c.read(c.shardOf(key), key)
}

// Counter reads typed counter key at the cut; an absent cell reads 0,
// the answer the substrates give. Map-mode stores fold counters in the
// ops.KeyBit namespace; register-mode substrates keep them in the
// plain registers, so there the counter is the bare key.
func (c *Cut) Counter(key uint64) int64 {
	sid := c.shardOf(key)
	k := key
	if c.snaps[sid].st.mode == ModeMap {
		k |= ops.KeyBit
	}
	val, _ := c.read(sid, k)
	return val
}

// Certify checks every logged read against its shard's certifier at
// the pinned watermark. An error is not a conflict — the read-only
// class has none — it means a version store diverged from the
// committed log, and the answers must be refused.
func (c *Cut) Certify() error {
	for sid, reads := range c.reads {
		if len(reads) == 0 {
			continue
		}
		sn := c.snaps[sid]
		if err := sn.st.cert.certify(sn.w, reads); err != nil {
			return fmt.Errorf("shard %d: %w", sid, err)
		}
	}
	return nil
}

// Watermark is the max pinned per-shard commit seq: an opaque recency
// witness (per-shard stamps are independent sequences).
func (c *Cut) Watermark() uint64 {
	var w uint64
	for _, sn := range c.snaps {
		w = max(w, sn.w)
	}
	return w
}

// Close releases every pin. Idempotent.
func (c *Cut) Close() {
	for _, sn := range c.snaps {
		sn.Close()
	}
}
