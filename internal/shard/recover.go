package shard

import (
	"fmt"
	"os"
	"path/filepath"

	"pushpull/internal/backend"
	"pushpull/internal/recovery"
	"pushpull/internal/wal"
)

// Multi-log recovery: per-shard recovery first, then a consistency cut
// from the coordinator log.
//
//  1. Every shard's WAL recovers and re-certifies independently
//     (recovery.RecoverAndCertify): the committed prefix in stamp
//     order, replayed on a fresh shadow machine. The logs are only
//     partially constrained against each other — each shard froze at
//     its own durable prefix at crash time.
//  2. The coordinator log is decoded; each durable CCommit is a
//     globally-committed cross-shard transaction. Any participant
//     branch whose CMT did not reach its shard's durable prefix is
//     rolled forward from the journaled write-set (a Redo). A
//     cross-shard transaction with no durable CCommit cannot have
//     committed any branch (branches CMT only after the forced
//     decision), so per-shard recovery already discarded its PUSHes —
//     presumed abort, consistently on every shard.
//  3. The per-shard commit-order chains plus the coordinator's GSN
//     chain must merge into one total order (MergeOrders) — the
//     cross-shard serializability certificate over what survived.
//
// After this, zero transactions are in doubt: every cross-shard
// transaction is either fully committed (possibly via redo) or fully
// absent.

// Image is a sharded engine's durable snapshot: per-shard WAL segment
// images plus the coordinator log image. The in-memory crash/restart
// path hands it back via Options.RecoverFrom.
type Image struct {
	Shards [][][]byte // [shard][segment]bytes
	Coord  []byte
}

// Empty reports whether there is nothing to recover.
func (img *Image) Empty() bool {
	if img == nil {
		return true
	}
	for _, segs := range img.Shards {
		for _, s := range segs {
			if len(s) > 0 {
				return false
			}
		}
	}
	return len(img.Coord) == 0
}

// Redo is one branch to roll forward: a globally-committed cross-shard
// transaction whose CMT never reached this shard's durable prefix.
type Redo struct {
	Shard int
	GSN   uint64
	Name  string
	Puts  []KV
}

// MultiReport is the sharded recovery certificate.
type MultiReport struct {
	// Shards holds each shard's recovery report (replay + certification).
	Shards []recovery.Report
	// CoordCommits counts durable cross-shard commit decisions;
	// CoordTruncated records a torn coordinator tail (tolerated).
	CoordCommits   int
	CoordTruncated error
	// CoordBatches counts durable sequencer batch records; SeqEpoch is
	// the highest sealed sequencer epoch in the prefix (zero for a
	// mutex-coordinated image). Batched decisions are already folded
	// into CoordCommits — these report the batching shape.
	CoordBatches int
	SeqEpoch     uint64
	// Redos lists the branches resolved by roll-forward; InDoubtResolved
	// counts the cross-shard transactions that needed it. InDoubt is the
	// count left unresolved — zero by construction, reported so sweeps
	// can assert it.
	Redos           []Redo
	InDoubtResolved int
	InDoubt         int
	// MergedOrder is the Kahn-merged global commit order over every
	// chain that survived.
	MergedOrder []string
	// Epoch is the highest serving epoch branded into the coordinator
	// log's durable prefix (0 when unbranded) — a promotion serves at
	// Epoch+1.
	Epoch uint64
	// LeaseEpoch is the highest lease epoch branded into the coordinator
	// log's durable prefix (0 when unbranded) — a new lease must exceed
	// it.
	LeaseEpoch uint64
	// Sessions is the merged exactly-once dedup table: per-shard WAL
	// session entries (single-shard requests) unified with coordinator
	// log entries (cross-shard requests and boot checkpoints), latest
	// sequence number per session winning.
	Sessions map[uint64]recovery.SessionEntry
}

// RecoveredTxns sums the per-shard recovered transaction counts.
func (r MultiReport) RecoveredTxns() int {
	n := 0
	for _, rep := range r.Shards {
		n += len(rep.State.Txns)
	}
	return n
}

// RecoverAndCertifyImage replays a sharded durable image for the given
// substrate: per-shard recover-and-certify, coordinator resolution,
// and the merged commit-order check. A non-nil error means the image
// must not be served.
func RecoverAndCertifyImage(img *Image, substrate string) (MultiReport, error) {
	var out MultiReport
	if img == nil {
		return out, nil
	}
	committedBy := make([]map[string]bool, len(img.Shards))
	chains := make([][]string, 0, len(img.Shards)+1)
	for i, segs := range img.Shards {
		reg, err := backend.RegistryFor(substrate)
		if err != nil {
			return out, err
		}
		rep, err := recovery.RecoverAndCertify(segs, reg)
		if err != nil {
			return out, fmt.Errorf("shard %d: %w", i, err)
		}
		out.Shards = append(out.Shards, rep)
		committedBy[i] = make(map[string]bool, len(rep.State.Txns))
		chain := make([]string, 0, len(rep.State.Txns))
		for _, t := range rep.State.Txns {
			committedBy[i][t.Name] = true
			chain = append(chain, t.Name)
		}
		chains = append(chains, chain)
	}
	cr := DecodeCoordLogFull(img.Coord)
	recs := cr.Commits
	out.Epoch = cr.Epoch
	out.LeaseEpoch = cr.LeaseEpoch
	out.CoordTruncated = cr.Truncated
	out.CoordCommits = len(recs)
	out.CoordBatches = cr.Batches
	out.SeqEpoch = cr.SeqEpoch
	mergeSessions := func(src map[uint64]recovery.SessionEntry) {
		for sess, e := range src {
			if cur, ok := out.Sessions[sess]; ok && cur.SeqNo >= e.SeqNo {
				continue
			}
			if out.Sessions == nil {
				out.Sessions = make(map[uint64]recovery.SessionEntry)
			}
			out.Sessions[sess] = e
		}
	}
	for _, rep := range out.Shards {
		mergeSessions(rep.Sessions)
	}
	mergeSessions(cr.Sessions)
	coordChain := make([]string, 0, len(recs))
	for _, rec := range recs {
		coordChain = append(coordChain, rec.Name)
		missing := 0
		for _, b := range rec.Branches {
			if b.Shard < 0 || b.Shard >= len(committedBy) {
				return out, fmt.Errorf("shard: coordinator record %q names shard %d of %d (restart with the original -shards)",
					rec.Name, b.Shard, len(committedBy))
			}
			if !committedBy[b.Shard][rec.Name] {
				missing++
				out.Redos = append(out.Redos, Redo{
					Shard: b.Shard, GSN: rec.GSN, Name: rec.Name, Puts: b.Puts,
				})
			}
		}
		if missing > 0 {
			// A CEnd marker does NOT certify branch durability: a shard's
			// WAL can die during the branch CMT while the coordinator log
			// lives on long enough for a later forced append to make the
			// lazy CEnd durable. Evidence rules either way: the durable
			// CCommit alone decides, and a missing branch is rolled
			// forward from its journaled write-set.
			out.InDoubtResolved++
		}
	}
	chains = append(chains, coordChain)
	merged, err := MergeOrders(chains)
	if err != nil {
		return out, fmt.Errorf("shard: merged commit order not serializable: %w", err)
	}
	out.MergedOrder = merged
	return out, nil
}

// The on-disk layout. An engine of two or more shards keeps shard i's
// segments under dir/shard-NN/; a 1-shard engine keeps its only log's
// segments flat in dir itself — the layout a plain single-machine
// server has always written, so wal.ReadDir(dir) reads a 1-shard
// server's whole log. coord.log sits in dir either way. Reading
// accepts both shapes for shard 0 (a 1-shard engine used to write
// shard-00/ as well) and refuses a directory that holds both.

// shardDirName names shard i's WAL subdirectory.
func shardDirName(i int) string { return fmt.Sprintf("shard-%02d", i) }

// shardWALDir is where shard i of n keeps its segments under dir.
func shardWALDir(dir string, i, n int) string {
	if n == 1 {
		return dir
	}
	return filepath.Join(dir, shardDirName(i))
}

const coordLogName = "coord.log"

// ReadImageDir loads an engine's durable image from dir: flat
// wal-*.seg files as shard 0, shard-NN/wal-*.seg subdirectories, and
// coord.log. A missing directory is an empty image (first boot).
// Returns the image and the number of shard logs found (0 when none);
// a directory with segments in both the flat and the shard-NN shape is
// an error — serving either half would drop the other's commits.
func ReadImageDir(dir string) (*Image, int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		return nil, 0, err
	}
	img := &Image{}
	found := 0
	nested, shard0 := false, false // any shard-NN/ segment; a shard-00/ directory
	for _, m := range matches {
		if fi, err := os.Stat(m); err != nil || !fi.IsDir() {
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(m), "shard-%d", &idx); err != nil {
			continue
		}
		segs, err := wal.ReadDir(m)
		if err != nil {
			return nil, 0, fmt.Errorf("shard: reading %s: %w", m, err)
		}
		for len(img.Shards) <= idx {
			img.Shards = append(img.Shards, nil)
		}
		img.Shards[idx] = segs
		nested = nested || len(segs) > 0
		shard0 = shard0 || idx == 0
		found++
	}
	flat, err := wal.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("shard: reading %s: %w", dir, err)
	}
	if len(flat) > 0 {
		if nested {
			return nil, 0, fmt.Errorf("shard: %s holds both flat wal-*.seg files and shard-NN/ segments; refusing to guess which log is live", dir)
		}
		if len(img.Shards) == 0 {
			img.Shards = make([][][]byte, 1)
		}
		img.Shards[0] = flat
		if !shard0 { // an emptied shard-00/ already counted shard 0
			found++
		}
	}
	coordPath := filepath.Join(dir, coordLogName)
	if b, err := os.ReadFile(coordPath); err == nil {
		img.Coord = b
	} else if !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("shard: reading %s: %w", coordPath, err)
	}
	return img, found, nil
}

// imageFiles lists the durable image's files under dir: WAL segments
// (flat and shard-NN/ alike) and the coordinator log.
func imageFiles(dir string) ([]string, error) {
	var files []string
	for _, pat := range []string{"wal-*.seg", filepath.Join("shard-*", "wal-*.seg"), coordLogName} {
		m, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return nil, err
		}
		files = append(files, m...)
	}
	return files, nil
}

// moveFiles renames each of files from under src to the same relative
// path under dst.
func moveFiles(files []string, src, dst string) error {
	for _, m := range files {
		rel, err := filepath.Rel(src, m)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
			return err
		}
		if err := os.Rename(m, to); err != nil {
			return fmt.Errorf("shard: moving %s: %w", m, err)
		}
	}
	return nil
}

// archiveImageDir moves the previous epoch's image files into the next
// free epoch-NNN subdirectory, freeing the namespace for fresh logs
// while preserving the pre-crash image — and leaving nothing a later
// boot could half-read as a mixed image. It returns the archive ("" when
// there was nothing to move).
func archiveImageDir(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("shard: creating WAL dir: %w", err)
	}
	files, err := imageFiles(dir)
	if err != nil || len(files) == 0 {
		return "", err
	}
	var epoch string
	for n := 1; ; n++ {
		epoch = filepath.Join(dir, fmt.Sprintf("epoch-%03d", n))
		if !fileExists(epoch) {
			break
		}
	}
	return epoch, moveFiles(files, dir, epoch)
}

// unarchiveImageDir undoes archiveImageDir after a boot that failed past
// it: the fresh logs that boot wrote are removed and the archived image
// moves back, so the next boot recovers the original.
func unarchiveImageDir(dir, epoch string) error {
	fresh, err := imageFiles(dir)
	if err != nil {
		return err
	}
	for _, f := range fresh {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	if epoch == "" {
		return nil
	}
	archived, err := imageFiles(epoch)
	if err != nil {
		return err
	}
	if err := moveFiles(archived, epoch, dir); err != nil {
		return err
	}
	return os.RemoveAll(epoch)
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
