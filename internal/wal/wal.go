// Package wal is the crash-durability layer: a segmented, checksummed,
// append-only write-ahead log of the Push/Pull machine's global-log
// transitions. PUSH, UNPUSH and CMT are the only rules that touch the
// shared log G — the model's source of truth — so logging exactly those
// (plus the substrate abort mark) is enough for internal/recovery to
// rebuild a certified committed prefix after process death.
//
// It is also the repository's one log codec: the frame format and its
// total decoder (frame.go) and the durable append-only Segment — bytes,
// a durable watermark, an optional file, the tailing read replication
// polls — serve both the shard WALs and the cross-shard coordinator journal.
//
// Two sync policies: SyncOnCommit (the default) forces the log at each
// commit barrier, so an acknowledged commit is durable; SyncNever acks
// at once, the benchmark fast path whose crash sheds the open segment.
// Append itself never syncs — it runs under substrate commit locks.
//
// Crashes are simulated, deterministically: a chaos.Faults injector is
// consulted at chaos.SiteWALAppend on every append, and a firing kills
// the "process" at exactly that append. What survives is the synced
// prefix — plus, per chaos.CrashMode, a seed-chosen count of whole
// unsynced records, a torn partial tail, or a flipped bit, all derived
// from the plan seed via chaos.Hash01 — so every crash point in a sweep
// is replayable from a printed plan.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pushpull/internal/chaos"
)

// ErrCrashed reports an append or sync against a log whose simulated
// process has died. Callers in simulated-crash harnesses treat it as
// "the rest of this run is not durable", not as a failure.
var ErrCrashed = errors.New("wal: crashed (simulated process death)")

// SyncPolicy selects when appended records become durable. Append
// never syncs (except at segment rotation, which syncs the finished
// segment): it runs under substrate commit locks, where an fsync would
// serialize every committer. The policy is applied at CommitBarrier.
type SyncPolicy int

// Sync policies.
const (
	// SyncOnCommit (the zero value) forces the log at every commit
	// barrier: a transaction is acknowledged only once its CMT record
	// is durable, and concurrent committers share one barrier.
	SyncOnCommit SyncPolicy = iota
	// SyncNever is the unsynced fast path for benchmarks: barriers ack
	// at once and only segment rotation persists. A crash sheds the
	// whole open segment.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncOnCommit:
		return "commit"
	case SyncNever:
		return "none"
	default:
		return "badpolicy"
	}
}

// ParseSyncPolicy maps the String form back to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "commit":
		return SyncOnCommit, nil
	case "none":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want commit or none)", s)
}

// Options configure a Log.
type Options struct {
	// Dir, when non-empty, backs the log with real segment files
	// (wal-NNNNN.seg); empty keeps the log in memory — the form the
	// crash sweeps use, since the simulated crash controls exactly
	// which bytes "reached disk" either way.
	Dir string
	// SegmentBytes rotates to a fresh segment past this size
	// (default 64 KiB). Rotation always syncs the finished segment.
	SegmentBytes int
	// Policy is the sync policy (default SyncOnCommit).
	Policy SyncPolicy
	// Chaos, when non-nil, drives simulated crashes: consulted at
	// chaos.SiteWALAppend per append; plan CrashMode shapes the
	// surviving image.
	Chaos *chaos.Faults
	// SyncObserver, when non-nil, receives the duration of every
	// non-trivial sync (one call per durability barrier that had bytes
	// to flush) — the telemetry seam for WAL sync-latency histograms.
	// Called under the log mutex; must not call back into the log.
	SyncObserver func(time.Duration)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 10
	}
	return o
}

// Stats snapshots log activity.
type Stats struct {
	Syncs    uint64
	Segments int
}

// Log is the write-ahead log: a sequence of Segments, the last one
// open for appends.
type Log struct {
	mu      sync.Mutex
	opts    Options
	segs    []*Segment
	appends uint64
	// durableRecs is appends at the last sync that flushed bytes —
	// every one of those records is inside the durable prefix.
	durableRecs uint64
	syncs       uint64
	crashed     bool
	ioErr       error
}

// Open creates a log. With Options.Dir set, fresh segment files are
// created there (the directory must exist and be empty of wal-*.seg
// files from this log's perspective — recovery reads them, the log does
// not append to old ones).
func Open(opts Options) (*Log, error) {
	l := &Log{opts: opts.withDefaults()}
	if err := l.rotate(); err != nil {
		return nil, err
	}
	return l, nil
}

// MustOpen is Open for memory-backed options that cannot fail.
func MustOpen(opts Options) *Log {
	l, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return l
}

// rotate syncs and closes the current segment and opens the next one,
// whose header is durable at once. Called with mu held (or before the
// log is shared).
func (l *Log) rotate() error {
	if cur := l.cur(); cur != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := cur.Close(); err != nil {
			return err
		}
	}
	index, path := len(l.segs), ""
	if l.opts.Dir != "" {
		path = filepath.Join(l.opts.Dir, fmt.Sprintf("wal-%05d.seg", index))
	}
	seg, err := OpenSegment(path, SegmentHeader(index))
	if err != nil {
		return err
	}
	l.segs = append(l.segs, seg)
	return l.syncLocked()
}

func (l *Log) cur() *Segment {
	if len(l.segs) == 0 {
		return nil
	}
	return l.segs[len(l.segs)-1]
}

// Append frames, checksums and writes one record; it never syncs,
// except when the record fills the segment and rotation syncs it. It
// returns ErrCrashed once the simulated process has died — nothing
// after that point is durable.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed {
		return ErrCrashed
	}
	if l.ioErr != nil {
		return l.ioErr
	}
	encoded := Encode(nil, r)
	l.appends++
	cur := l.cur()
	cur.mu.Lock()
	if f := l.opts.Chaos; f != nil && f.Fire(chaos.SiteWALAppend) {
		l.crashLocked(cur, encoded)
		cur.mu.Unlock()
		return ErrCrashed
	}
	err := cur.writeLocked(encoded)
	full := len(cur.buf) >= l.opts.SegmentBytes
	cur.mu.Unlock()
	if err == nil && full {
		err = l.rotate()
	}
	if err != nil {
		l.ioErr = err
	}
	return err
}

// syncLocked makes every written byte durable. Called with mu held.
func (l *Log) syncLocked() error {
	cur := l.cur()
	cur.mu.Lock()
	defer cur.mu.Unlock()
	var begin time.Time
	if l.opts.SyncObserver != nil {
		begin = time.Now()
	}
	flushed, err := cur.syncLocked()
	if err != nil {
		l.ioErr = err
		return err
	}
	if flushed {
		l.durableRecs = l.appends
		l.syncs++
		if l.opts.SyncObserver != nil {
			l.opts.SyncObserver(time.Since(begin))
		}
	}
	return nil
}

// DurableRecords reports how many appended records are inside the
// durable prefix (frozen at the crash point on a killed log).
func (l *Log) DurableRecords() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableRecs
}

// Sync forces durability of everything appended so far.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed {
		return ErrCrashed
	}
	return l.syncLocked()
}

// CommitBarrier is the substrate commit-path durability hook: it blocks
// until the records appended so far — the caller's CMT included — are
// durable per the policy. Under SyncOnCommit it forces the log (the
// group commit in front of it lets concurrent committers share one
// force); under SyncNever it acknowledges immediately. A crashed log
// also acks immediately (see core.Durable).
func (l *Log) CommitBarrier() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed || l.opts.Policy == SyncNever {
		// A dead simulated process's remaining activity is non-durable
		// by definition. Acking (rather than erroring) keeps substrates
		// crash-agnostic — recovery certifies the durable prefix, not
		// the post-crash tail.
		return nil
	}
	return l.syncLocked()
}

// crashLocked applies the simulated process death at the append whose
// encoded bytes are in flight. The surviving image per CrashMode:
//
//	clean:   the synced prefix plus a plan-chosen count of the whole
//	         unsynced records after it (those the OS happened to write
//	         back), never the in-flight one — so a clean image may stop
//	         between a transaction's PUSHes and its CMT;
//	torn:    the synced prefix plus an arbitrary prefix of the unsynced
//	         bytes including the in-flight record — a torn write;
//	bitflip: the synced prefix with one bit flipped — latent corruption.
//
// The image is the disk's: the segment still serves tailers its synced
// prefix. The kept count, torn length and flip offset derive from the plan seed
// via Hash01, so the whole post-crash image replays from the printed
// plan. Called with mu and cur.mu held.
func (l *Log) crashLocked(cur *Segment, inflight []byte) {
	l.crashed = true
	var plan chaos.Plan
	if l.opts.Chaos != nil {
		plan = l.opts.Chaos.Plan()
	}
	img := append([]byte(nil), cur.buf[:cur.durable]...)
	switch plan.CrashMode {
	case chaos.CrashTorn:
		lost := append(append([]byte(nil), cur.buf[cur.durable:]...), inflight...)
		keep := int(chaos.Hash01(plan.Seed, "wal/torn", l.appends) * float64(len(lost)+1))
		if keep > len(lost) {
			keep = len(lost)
		}
		img = append(img, lost[:keep]...)
	case chaos.CrashBitflip:
		// Flip within the current segment's durable image, past the
		// header when possible (a corrupted header drops the whole
		// segment, which recovery also survives, but the interesting
		// case is a mid-log flip).
		lo := SegHeaderLen
		if len(img) <= lo {
			lo = 0
		}
		if len(img) > lo {
			span := (len(img) - lo) * 8
			bit := int(chaos.Hash01(plan.Seed, "wal/bitflip", l.appends) * float64(span))
			if bit >= span {
				bit = span - 1
			}
			img[lo+bit/8] ^= 1 << (bit % 8)
		}
	default: // CrashClean
		var ends []int
		WalkFrames(cur.buf[cur.durable:], func(p []byte) error {
			prev := 0
			if len(ends) > 0 {
				prev = ends[len(ends)-1]
			}
			ends = append(ends, prev+frameLen+len(p))
			return nil
		})
		keep := int(chaos.Hash01(plan.Seed, "wal/clean", l.appends) * float64(len(ends)+1))
		if keep > len(ends) {
			keep = len(ends)
		}
		if keep > 0 {
			img = append(img, cur.buf[cur.durable:cur.durable+ends[keep-1]]...)
		}
	}
	cur.crashLocked(img)
}

// Kill applies a simulated process death now, from outside the append
// path: the surviving image is the synced prefix. The sharded engine
// uses it to propagate one shard's WAL death to every other log — a
// process dies once, and each log freezes at its own durable prefix
// (the cross-log skew recovery must resolve). Idempotent.
func (l *Log) Kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.crashed {
		l.crashed = true
		l.cur().Kill()
	}
}

// Crashed reports whether the simulated process has died.
func (l *Log) Crashed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.crashed
}

// Stats snapshots activity counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Syncs: l.syncs, Segments: len(l.segs)}
}

// Segments returns the on-"disk" image: every segment's surviving bytes
// (header included), in index order. After a crash this is exactly what
// recovery gets to work with; before one it is the full written image.
func (l *Log) Segments() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][]byte, len(l.segs))
	for i, s := range l.segs {
		out[i] = s.Image()
	}
	return out
}

// DurableAt reads up to max durable bytes of segment seg starting at
// byte offset off (offsets count from the segment start, header
// included) — the pull side of the segment-tailing API. It returns:
//
//	data: the bytes (possibly empty when the tailer has caught up);
//	next: the segment is finished (a later segment exists) and the
//	      caller has now read all of it — advance to (seg+1, 0);
//	more: more durable bytes are immediately available (this segment
//	      past off+len(data), or a later segment) — poll again without
//	      waiting.
//
// A crashed log still serves its frozen durable image: that is exactly
// the prefix a straggling tailer is entitled to.
func (l *Log) DurableAt(seg, off, max int) (data []byte, next, more bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seg < 0 || seg >= len(l.segs) {
		return nil, false, false, fmt.Errorf("wal: no segment %d (have %d)", seg, len(l.segs))
	}
	data, more, err = l.segs[seg].DurableAt(off, max)
	if err != nil {
		return nil, false, false, fmt.Errorf("segment %d: %w", seg, err)
	}
	finished := seg < len(l.segs)-1 // rotation syncs, so a finished segment is fully durable
	return data, finished && !more, more || finished, nil
}

// Close syncs and closes the log (no-op after a crash: the dead process
// cannot flush).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed {
		return nil
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	return l.cur().Close()
}

// ReadDir loads segment images from a directory of wal-*.seg files in
// index order — the file-backed path into recovery.
func ReadDir(dir string) ([][]byte, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return nil, err
	}
	// Glob sorts lexically; zero-padded indices make that index order.
	out := make([][]byte, 0, len(matches))
	for _, m := range matches {
		b, err := os.ReadFile(m)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
