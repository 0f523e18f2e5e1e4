package shard

import (
	"testing"
)

// FuzzShardRouter asserts the router's partition laws: key→shard is
// deterministic, every key lands inside [0, n), and resharding a key
// set neither loses nor duplicates keys — the union of the new
// partitions is exactly the old set.
func FuzzShardRouter(f *testing.F) {
	f.Add(uint64(0), uint64(1), 2, 4)
	f.Add(uint64(17), uint64(1000003), 4, 1)
	f.Add(uint64(1)<<63, uint64(42), 8, 3)
	f.Add(uint64(255), uint64(256), 1, 16)

	f.Fuzz(func(t *testing.T, base, stride uint64, n, m int) {
		if n <= 0 || n > 64 || m <= 0 || m > 64 {
			t.Skip()
		}
		if stride == 0 {
			stride = 1
		}
		rOld, rNew := NewRouter(n), NewRouter(m)
		const keys = 128
		oldParts := make([]map[uint64]bool, n)
		for i := range oldParts {
			oldParts[i] = make(map[uint64]bool)
		}
		newParts := make([]map[uint64]bool, m)
		for i := range newParts {
			newParts[i] = make(map[uint64]bool)
		}
		seen := make(map[uint64]bool, keys)
		for i := uint64(0); i < keys; i++ {
			k := base + i*stride
			if seen[k] {
				continue
			}
			seen[k] = true
			s := rOld.Shard(k)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", k, n, s)
			}
			if again := rOld.Shard(k); again != s {
				t.Fatalf("ShardOf(%d, %d) unstable: %d then %d", k, n, s, again)
			}
			oldParts[s][k] = true
			newParts[rNew.Shard(k)][k] = true
		}
		// Resharding: the union of the new partitions equals the key
		// set — nothing lost, nothing duplicated.
		total := 0
		for _, p := range newParts {
			total += len(p)
			for k := range p {
				if !seen[k] {
					t.Fatalf("resharding invented key %d", k)
				}
			}
		}
		if total != len(seen) {
			t.Fatalf("resharding kept %d of %d keys", total, len(seen))
		}
		// Same-count resharding is the identity.
		if n == m {
			for k := range seen {
				if rOld.Shard(k) != rNew.Shard(k) {
					t.Fatalf("same shard count moved key %d", k)
				}
			}
		}
	})
}

// FuzzCrossShardCommitOrder drives a random mix of single- and
// cross-shard transactions through a small engine and asserts the
// full certificate: per-shard shadow machines and commit orders, the
// runtime cross-order invariant, and the recovery-time merged order
// over the durable image.
func FuzzCrossShardCommitOrder(f *testing.F) {
	f.Add(int64(1), []byte{0x01, 0x82, 0x13, 0xff, 0x40})
	f.Add(int64(7), []byte{0xaa, 0x55, 0x00, 0x11, 0x22, 0x33, 0x44})
	f.Add(int64(99), []byte{})

	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		if seed == 0 {
			seed = 1
		}
		e, err := New(Options{Shards: 3, Substrate: "tl2", Keys: 96, Seed: seed, Durable: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range script {
			k1 := uint64(b) % 96
			k2 := uint64(b>>3+uint8(i)) % 96
			val := int64(i + 1)
			switch b % 3 {
			case 0: // single-shard write
				_, _, err = e.Do([]Op{{Kind: OpPut, Key: k1, Val: val}})
			case 1: // possibly-cross write pair
				_, _, err = e.Do([]Op{
					{Kind: OpPut, Key: k1, Val: val},
					{Kind: OpPut, Key: k2, Val: -val},
				})
			case 2: // read-modify-write pair
				_, _, err = e.Do([]Op{
					{Kind: OpGet, Key: k1},
					{Kind: OpPut, Key: k2, Val: val},
				})
			}
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		if err := e.LeakCheck(); err != nil {
			t.Fatal(err)
		}
		if err := e.FinalCheck(); err != nil {
			t.Fatal(err)
		}
		// Recovery over the durable image must re-certify and merge.
		img := e.Image()
		rep, err := RecoverAndCertifyImage(img, "tl2")
		if err != nil {
			t.Fatalf("recovery certification: %v", err)
		}
		if rep.InDoubt != 0 || rep.InDoubtResolved != 0 {
			t.Fatalf("clean run left doubt: %+v", rep)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzCoordBatchDecode hammers the coordinator-log decoder with
// mutated images seeded from real batch records: decode must never
// panic, must only report commits with intact framing (longest valid
// prefix), and a re-encode of an untampered decode must round-trip.
func FuzzCoordBatchDecode(f *testing.F) {
	seedLog := func(batches ...BatchRec) []byte {
		l, err := OpenCoordLog("", nil)
		if err != nil {
			f.Fatal(err)
		}
		for _, b := range batches {
			if err := l.AppendBatch(b); err != nil {
				f.Fatal(err)
			}
		}
		return l.Image()
	}
	f.Add(seedLog(BatchRec{Epoch: 1, Commits: []CommitRec{
		{GSN: 1, Name: "g1", Branches: []BranchRec{
			{Shard: 0, Puts: []KV{{Key: 1, Val: 10}}},
			{Shard: 1, Puts: []KV{{Key: 2, Val: -20}}},
		}},
		{GSN: 2, Name: "g2", Branches: []BranchRec{
			{Shard: 1, Puts: nil},
			{Shard: 2, Puts: []KV{{Key: 3, Val: 30}}},
		}},
	}}))
	f.Add(seedLog(
		BatchRec{Epoch: 1, Commits: []CommitRec{{GSN: 1, Name: "a"}}},
		BatchRec{Epoch: 2, Commits: []CommitRec{{GSN: 2, Name: "b"}, {GSN: 3, Name: "c"}}},
	))
	f.Add(seedLog())
	f.Add([]byte(nil))
	f.Add([]byte("PPCRD\x01\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		cr := DecodeCoordLogFull(data)
		// The decoded prefix must be internally consistent regardless of
		// input: batch counters only with batches present, and every
		// commit re-encodable.
		if cr.Batches == 0 && cr.SeqEpoch != 0 {
			t.Fatalf("sequencer epoch %d without a batch record", cr.SeqEpoch)
		}
		for _, c := range cr.Commits {
			_ = encodeCommitRec(c)
		}
		// An intact image must round-trip exactly: re-encoding the
		// decoded batches reproduces the same commit fold.
		if cr.Truncated == nil && cr.Batches > 0 {
			l, err := OpenCoordLog("", nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.AppendBatch(BatchRec{Epoch: cr.SeqEpoch, Commits: cr.Commits}); err != nil {
				t.Fatal(err)
			}
			again := DecodeCoordLogFull(l.Image())
			if again.Truncated != nil || len(again.Commits) != len(cr.Commits) {
				t.Fatalf("re-encode lost commits: %d -> %d (%v)",
					len(cr.Commits), len(again.Commits), again.Truncated)
			}
		}
	})
}
