// Package repl is the replicated-serving layer: primary-side WAL
// shipping, follower replay, and certified failover.
//
// The design leans entirely on two facts the lower layers already
// guarantee:
//
//  1. The WAL (plus the coordinator log) is the whole truth. Recovery
//     is a pure fold over durable bytes (internal/recovery), and the
//     sharded consistency cut (internal/shard.RecoverAndCertifyImage)
//     resolves cross-shard doubt from the coordinator journal alone.
//     So replication is byte shipping: a replica that holds the same
//     durable bytes can recover to the same certified state — there is
//     no separate replication state machine to keep honest.
//
//  2. Durability has a single choke point: every byte becomes durable
//     inside one barrier (wal.Segment.syncLocked), and the commit
//     ack happens strictly after. Shipping synchronously at that seam
//     (shard.Options.Ship → Group.Ship) makes "no acknowledged commit
//     is lost on failover" structural: by the time any client sees OK,
//     the bytes were delivered to — and acked by — every live replica,
//     over a link that retransmits through drops, duplicates, and
//     reorders until the replica acks.
//
// A Replica continuously folds the stream through recovery.Replayer
// (per shard) plus the coordinator decoder — the same consistency cut
// as crash recovery, incrementally — and projects committed writes
// onto a KV image for stale-bounded read-only serving. On primary
// death, Promote runs the full shard.RecoverAndCertifyImage over the
// shipped bytes: per-shard certification, coordinator roll-forward,
// and the Kahn-merged global order, exactly as a local restart would.
//
// Fencing: the serving epoch is branded into the coordinator log
// (forced, so it ships and survives restart) and stamped on every
// batch. A replica that has seen epoch E refuses batches with a lower
// epoch (ErrFenced); the refusing link reports back through
// Group.OnFenced, which fences the zombie engine — its coordinator log
// refuses further decisions and its Do withholds acks. A zombie can
// scribble on its own dead branch, but it can neither ack a client nor
// corrupt a replica.
//
// The promotion certification obligation is per stream, deliberately:
// the promoted node's per-shard commit chains and coordinator GSN
// chain must each extend every follower's corresponding chain (see
// CheckPrefixExtension for why comparing Kahn-merged orders directly
// would be unsound). The merged order then embeds every chain by
// construction.
package repl

import "errors"

// Replication stream errors.
var (
	// ErrGap reports a batch whose offset is past the replica's
	// contiguous prefix for that stream — bytes in between are missing.
	// The shipper resends from the replica's watermark.
	ErrGap = errors.New("repl: batch beyond contiguous prefix (gap)")
	// ErrFenced reports a batch stamped with a lower epoch than the
	// replica has already seen: the sender is a zombie predecessor and
	// must stop.
	ErrFenced = errors.New("repl: batch epoch below replica epoch (fenced)")
	// ErrPoisoned reports a replica that has detected unrepairable
	// stream damage (corrupt record, diverged overlap, replay anomaly)
	// and refuses all further batches; it must be rebuilt from a fresh
	// checkpoint stream.
	ErrPoisoned = errors.New("repl: replica poisoned by stream damage")
)

// Config mirrors the primary's engine shape; a replica must fold the
// stream with the same substrate semantics, shard count, and per-shard
// key-space size.
type Config struct {
	Substrate string
	Shards    int
	Keys      int
}

func (c Config) withDefaults() Config {
	if c.Substrate == "" {
		c.Substrate = "tl2"
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Keys <= 0 {
		c.Keys = 64
	}
	return c
}

// CoordStream returns the coordinator log's stream index under this
// config (streams 0..Shards-1 are the shard WALs).
func (c Config) CoordStream() int { return c.Shards }

// Streams returns the stream count (shards + coordinator).
func (c Config) Streams() int { return c.Shards + 1 }

// Cursor is a position in one stream: segment index and byte offset
// within the segment (header included). The coordinator stream has a
// single segment (always Seg 0).
type Cursor struct {
	Seg int `json:"seg"`
	Off int `json:"off"`
}

// Batch is one shipped byte range of one stream, stamped with the
// sender's serving epoch. Off is the absolute offset of Data[0] within
// segment Seg.
type Batch struct {
	Stream int
	Seg    int
	Off    int
	Data   []byte
	Epoch  uint64
}
