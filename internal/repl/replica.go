package repl

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"pushpull/internal/mvcc"
	"pushpull/internal/recovery"
	"pushpull/internal/shard"
	"pushpull/internal/wal"
)

// streamState is one stream's replica-side image and fold cursor.
type streamState struct {
	segs    [][]byte
	decSeg  int  // segment the fold cursor is in
	decOff  int  // body bytes (past the header) already decoded in decSeg
	hdrOK   bool // decSeg's header validated
	rp      *recovery.Replayer
	folded  int // committed txns already projected onto the KV image
	rawRecs int // coordinator stream only: whole records decoded
	chain   []string
}

// StreamStat is one stream's replica-side progress snapshot.
type StreamStat struct {
	// Watermark is the contiguous durable prefix held (the ack point).
	Watermark Cursor `json:"watermark"`
	// Applied counts records folded (shard streams) or coordinator
	// records decoded (the coordinator stream).
	Applied uint64 `json:"applied"`
	// Committed counts committed transactions recovered so far.
	Committed int `json:"committed"`
}

// Stats snapshots a replica.
type Stats struct {
	Epoch      uint64       `json:"epoch"`
	Streams    []StreamStat `json:"streams"`
	Duplicates uint64       `json:"duplicates"`
	Gaps       uint64       `json:"gaps"`
	Fenced     uint64       `json:"fenced_rejects"`
	ReadTxns   uint64       `json:"read_txns"`
	Poisoned   bool         `json:"poisoned,omitempty"`
}

// Replica is a warm standby: it holds every shipped byte, continuously
// folds the stream through the recovery replay (per-shard Replayer
// plus the coordinator decoder — the same consistency cut as crash
// recovery, incrementally), and projects committed writes onto a KV
// image for read-only serving. All methods are safe for concurrent
// use.
type Replica struct {
	mu     sync.Mutex
	cfg    Config
	router shard.Router
	epoch  uint64

	streams    []*streamState // cfg.Shards shard streams + the coordinator
	coord      []shard.CommitRec
	coordSess  map[uint64]recovery.SessionEntry
	leaseEpoch uint64
	stores     []*mvcc.Store // per-shard committed version chains and read certifiers

	dups     uint64
	gaps     uint64
	fenced   uint64
	readTxns uint64
	poison   error
}

// NewReplica builds an empty replica for the given primary shape.
func NewReplica(cfg Config) *Replica {
	cfg = cfg.withDefaults()
	r := &Replica{cfg: cfg, router: shard.NewRouter(cfg.Shards)}
	for i := 0; i < cfg.Shards; i++ {
		r.streams = append(r.streams, &streamState{rp: recovery.NewReplayer()})
		r.stores = append(r.stores, mvcc.NewStore(mvcc.ModeFor(cfg.Substrate), cfg.Keys))
	}
	r.streams = append(r.streams, &streamState{}) // coordinator
	return r
}

// SetObserver wires o into every per-shard version store. Call before
// the replica starts ingesting batches.
func (r *Replica) SetObserver(o mvcc.Observer) {
	for _, st := range r.stores {
		st.SetObserver(o)
	}
}

// Config returns the replica's configuration.
func (r *Replica) Config() Config { return r.cfg }

// Epoch returns the highest serving epoch the replica has seen.
func (r *Replica) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Poisoned returns the sticky stream-damage error, if any.
func (r *Replica) Poisoned() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.poison
}

func (r *Replica) poisonLocked(err error) error {
	if r.poison == nil {
		r.poison = fmt.Errorf("%w: %v", ErrPoisoned, err)
	}
	return r.poison
}

// Apply ingests one shipped batch: epoch fencing first, then
// contiguity (duplicates are trimmed and acked, gaps rejected for
// resend), then the incremental fold. A nil return is the replica's
// ack: the batch's bytes are held and folded.
func (r *Replica) Apply(b Batch) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.poison != nil {
		return r.poison
	}
	if b.Epoch < r.epoch {
		r.fenced++
		return fmt.Errorf("%w: batch epoch %d, replica at %d", ErrFenced, b.Epoch, r.epoch)
	}
	if b.Epoch > r.epoch {
		r.epoch = b.Epoch
	}
	if b.Stream < 0 || b.Stream >= len(r.streams) {
		return fmt.Errorf("repl: no stream %d (have %d)", b.Stream, len(r.streams))
	}
	st := r.streams[b.Stream]
	coord := b.Stream == r.cfg.CoordStream()
	if coord && b.Seg != 0 {
		return fmt.Errorf("repl: coordinator stream has one segment, got seg %d", b.Seg)
	}
	data := b.Data
	switch {
	case b.Seg < len(st.segs):
		// Into an existing segment: trim the overlap (retransmits and
		// duplicated batches), verifying it byte-matches what we hold —
		// a mismatch means the streams diverged, which no retry fixes.
		have := len(st.segs[b.Seg])
		if b.Off > have {
			r.gaps++
			return fmt.Errorf("%w: stream %d seg %d off %d, have %d", ErrGap, b.Stream, b.Seg, b.Off, have)
		}
		overlap := have - b.Off
		if overlap > len(data) {
			overlap = len(data)
		}
		if !bytes.Equal(st.segs[b.Seg][b.Off:b.Off+overlap], data[:overlap]) {
			return r.poisonLocked(fmt.Errorf("stream %d seg %d: overlap mismatch at off %d", b.Stream, b.Seg, b.Off))
		}
		if overlap == len(data) {
			r.dups++
			return nil // pure duplicate; already held — ack it
		}
		if b.Seg != len(st.segs)-1 {
			// New bytes for a rotated-away segment: the primary only
			// appends to its last segment, so this cannot happen on an
			// honest stream.
			return r.poisonLocked(fmt.Errorf("stream %d: append to finished segment %d", b.Stream, b.Seg))
		}
		st.segs[b.Seg] = append(st.segs[b.Seg], data[overlap:]...)
	case b.Seg == len(st.segs):
		if b.Off != 0 {
			r.gaps++
			return fmt.Errorf("%w: stream %d new seg %d starts at off %d", ErrGap, b.Stream, b.Seg, b.Off)
		}
		st.segs = append(st.segs, append([]byte(nil), data...))
	default:
		r.gaps++
		return fmt.Errorf("%w: stream %d seg %d, have %d segs", ErrGap, b.Stream, b.Seg, len(st.segs))
	}
	if coord {
		return r.advanceCoord(st)
	}
	return r.advanceShard(b.Stream, st)
}

// advanceShard folds every newly complete record of one shard stream.
// A torn tail at the end of the open segment is "wait for more bytes";
// the same tail mid-stream — or any ErrCorrupt — poisons the replica.
func (r *Replica) advanceShard(s int, st *streamState) error {
	for {
		if st.decSeg >= len(st.segs) {
			return nil
		}
		seg := st.segs[st.decSeg]
		last := st.decSeg == len(st.segs)-1
		if !st.hdrOK {
			if len(seg) < wal.SegHeaderLen {
				if last {
					return nil // header still arriving
				}
				return r.poisonLocked(fmt.Errorf("stream %d seg %d: short header mid-stream", s, st.decSeg))
			}
			idx, err := wal.CheckSegmentHeader(seg)
			if err != nil {
				return r.poisonLocked(fmt.Errorf("stream %d seg %d: %v", s, st.decSeg, err))
			}
			if idx != st.decSeg {
				return r.poisonLocked(fmt.Errorf("stream %d seg %d: header declares index %d", s, st.decSeg, idx))
			}
			st.hdrOK = true
		}
		body := seg[wal.SegHeaderLen:]
		recs, consumed, reason := wal.DecodeAll(body[st.decOff:])
		st.decOff += consumed
		before := len(st.rp.Anomalies())
		for _, rec := range recs {
			st.rp.Apply(rec)
		}
		if anoms := st.rp.Anomalies(); len(anoms) > before {
			return r.poisonLocked(fmt.Errorf("stream %d: replay anomaly: %s", s, anoms[len(anoms)-1]))
		}
		r.foldNewLocked(s, st)
		switch {
		case reason == nil:
			if last {
				return nil // caught up
			}
			st.decSeg, st.decOff, st.hdrOK = st.decSeg+1, 0, false
		case errors.Is(reason, wal.ErrTornTail):
			if last {
				return nil // the open segment's tail will grow past this
			}
			return r.poisonLocked(fmt.Errorf("stream %d seg %d: torn mid-stream: %v", s, st.decSeg, reason))
		default: // wal.ErrCorrupt
			return r.poisonLocked(fmt.Errorf("stream %d seg %d: %v", s, st.decSeg, reason))
		}
	}
}

// advanceCoord re-decodes the coordinator image (it is small — one
// frame per cross-shard decision). Truncation is tolerated exactly as
// recovery tolerates it: the torn tail is simply not yet decided. The
// full decode also yields the cross-shard half of the exactly-once
// session table and the branded lease epoch, so a promoted follower
// serves retries from the same table the primary did.
func (r *Replica) advanceCoord(st *streamState) error {
	cr := shard.DecodeCoordLogFull(st.segs[0])
	r.coord = cr.Commits
	r.coordSess = cr.Sessions
	r.leaseEpoch = cr.LeaseEpoch
	st.folded = len(cr.Commits)
	st.rawRecs = cr.Records
	if cr.Epoch > r.epoch {
		r.epoch = cr.Epoch
	}
	st.chain = st.chain[:0]
	for _, rec := range cr.Commits {
		st.chain = append(st.chain, rec.Name)
	}
	return nil
}

// foldNewLocked commits newly replayed transactions of shard s to the
// per-shard version store at their recovery commit stamps — the same
// Store.Commit the primary's applier calls, so both build identical
// version chains. The replayer rejects stamp regressions as anomalies
// before this runs, so Commit's commit-order precondition holds by
// construction.
func (r *Replica) foldNewLocked(s int, st *streamState) {
	for _, t := range st.rp.CommittedSince(st.folded) {
		st.chain = append(st.chain, t.Name)
		r.stores[s].Commit(t.Stamp, t.Ops)
	}
	st.folded = st.rp.CommittedLen()
}

// Get serves one key from a pinned snapshot of the replica's version
// stores — an uncertified single read for verification. Word
// substrates always report found (a register's default value is 0),
// map substrates report presence, matching the primary's semantics.
func (r *Replica) Get(key uint64) (int64, bool) {
	cut := r.SnapshotCut()
	defer cut.Close()
	return cut.Get(key)
}

// SnapshotCut pins one snapshot per shard under a single lock
// acquisition — a consistent cut of the folded committed prefix,
// stale-bounded but never straddling a half-applied batch. The caller
// must Close it; until it does, GC holds every version the cut can
// see.
func (r *Replica) SnapshotCut() *mvcc.Cut {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.readTxns++
	return mvcc.Pin(r.stores, r.router.Shard)
}

// MVCCStats sums the per-shard version-store censuses.
func (r *Replica) MVCCStats() mvcc.Stats { return mvcc.SumStats(r.stores) }

// Watermark returns one stream's contiguous durable prefix — the ack
// point a resending shipper resumes from.
func (r *Replica) Watermark(stream int) Cursor {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.watermarkLocked(stream)
}

func (r *Replica) watermarkLocked(stream int) Cursor {
	if stream < 0 || stream >= len(r.streams) {
		return Cursor{}
	}
	st := r.streams[stream]
	if len(st.segs) == 0 {
		return Cursor{}
	}
	return Cursor{Seg: len(st.segs) - 1, Off: len(st.segs[len(st.segs)-1])}
}

// Chains returns the replica's per-stream commit chains: for each
// shard its committed transaction names in stamp order, and last the
// coordinator's decided names in GSN order — the prefix-extension
// obligation's operands.
func (r *Replica) Chains() [][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]string, len(r.streams))
	for i, st := range r.streams {
		out[i] = append([]string(nil), st.chain...)
	}
	return out
}

// Stats snapshots replication progress.
func (r *Replica) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := Stats{
		Epoch: r.epoch, Duplicates: r.dups, Gaps: r.gaps,
		Fenced: r.fenced, ReadTxns: r.readTxns, Poisoned: r.poison != nil,
	}
	for i, st := range r.streams {
		ss := StreamStat{Watermark: r.watermarkLocked(i), Committed: st.folded}
		if st.rp != nil {
			ss.Applied = uint64(st.rp.Records())
			ss.Committed = st.rp.CommittedLen()
		} else {
			ss.Applied = uint64(st.rawRecs)
			ss.Committed = len(r.coord)
		}
		out.Streams = append(out.Streams, ss)
	}
	return out
}

// AppliedRecords sums records applied across shard streams plus
// coordinator records decoded — the replica-side operand of the
// replication lag gauge.
func (r *Replica) AppliedRecords(stream int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if stream < 0 || stream >= len(r.streams) {
		return 0
	}
	st := r.streams[stream]
	if st.rp != nil {
		return uint64(st.rp.Records())
	}
	return uint64(st.rawRecs)
}

// Sessions merges the replica's view of the exactly-once session table:
// the single-shard half from the per-shard replayer folds and the
// cross-shard (and boot-checkpoint) half from the coordinator stream,
// latest sequence number winning — the same merge boot recovery runs.
func (r *Replica) Sessions() map[uint64]recovery.SessionEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[uint64]recovery.SessionEntry)
	merge := func(m map[uint64]recovery.SessionEntry) {
		for s, ent := range m {
			if cur, ok := out[s]; !ok || ent.SeqNo > cur.SeqNo {
				out[s] = ent
			}
		}
	}
	for i := 0; i < r.cfg.Shards; i++ {
		if rp := r.streams[i].rp; rp != nil {
			merge(rp.Sessions())
		}
	}
	merge(r.coordSess)
	return out
}

// LeaseEpoch returns the highest lease epoch the coordinator stream has
// branded — the floor for any lease granted to this replica after
// promotion.
func (r *Replica) LeaseEpoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaseEpoch
}

// Image snapshots the replica's shipped bytes as a shard.Image — the
// durable image promotion certifies and the successor engine recovers
// from.
func (r *Replica) Image() *shard.Image {
	r.mu.Lock()
	defer r.mu.Unlock()
	img := &shard.Image{Shards: make([][][]byte, r.cfg.Shards)}
	for i := 0; i < r.cfg.Shards; i++ {
		for _, seg := range r.streams[i].segs {
			img.Shards[i] = append(img.Shards[i], append([]byte(nil), seg...))
		}
	}
	if segs := r.streams[r.cfg.CoordStream()].segs; len(segs) > 0 {
		img.Coord = append([]byte(nil), segs[0]...)
	}
	return img
}

// Certify runs the full multi-log recovery certificate over the
// shipped bytes — per-shard recover-and-certify, coordinator
// resolution, merged commit order — without mutating the replica. This
// is the promotion obligation: a follower may only take over with a
// certificate in hand.
func (r *Replica) Certify() (shard.MultiReport, error) {
	return shard.RecoverAndCertifyImage(r.Image(), r.cfg.Substrate)
}
