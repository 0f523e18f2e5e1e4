package repl_test

import (
	"errors"
	"fmt"
	"testing"

	"pushpull/internal/chaos"
	"pushpull/internal/repl"
	"pushpull/internal/shard"
)

// TestPartitionedLinkWithholdsAcks drives the full partition contract:
// while the follower's link is cut the ack gate withholds acks even
// though each commit is locally durable, and once the partition heals
// the follower catches up, converges byte-for-byte, and acks resume. A
// full window keeps the bytes from the follower; an asymmetric one
// delivers them but loses the confirmation, so the follower holds
// bytes the gate still counts as unreplicated.
func TestPartitionedLinkWithholdsAcks(t *testing.T) {
	for _, asym := range []bool{false, true} {
		t.Run(fmt.Sprintf("asym=%v", asym), func(t *testing.T) {
			const shards, keys = 2, 16
			cfg := repl.Config{Substrate: "tl2", Shards: shards, Keys: keys}
			rep := repl.NewReplica(cfg)
			eng, pullers, srcs := gated(t, shard.Options{
				Shards: shards, Substrate: "tl2", Keys: keys, Seed: 7,
			}, 1, link{rep: rep})
			src := srcs[0]
			// Cut polls 8..1e6: the first transaction or two replicate
			// clean, everything after waits for the heal.
			src.Partition(chaos.PartitionWindow{From: 8, To: 1 << 20, Asym: asym})

			var acked, withheld int
			for i := 0; i < 20; i++ {
				_, _, err := eng.Do([]shard.Op{{Kind: shard.OpPut, Key: uint64(i % keys), Val: int64(i)}})
				switch {
				case err == nil:
					acked++
				case errors.Is(err, repl.ErrPartitioned):
					withheld++
				default:
					t.Fatalf("txn %d: %v", i, err)
				}
			}
			if acked == 0 || withheld == 0 {
				t.Fatalf("%d acked, %d withheld while the link was partitioned", acked, withheld)
			}
			if _, _, cut := src.Counts(); cut == 0 {
				t.Fatal("partitioned link cut no poll")
			}
			// A full cut leaves the follower short of the primary's
			// durable streams; an asymmetric one delivered every byte.
			held := true
			for s := 0; s < cfg.Streams(); s++ {
				if rep.AppliedRecords(s) != eng.StreamAppends(s) {
					held = false
				}
			}
			if held != asym {
				t.Fatalf("asym=%v: follower holds every durable byte = %v", asym, held)
			}

			src.Heal()
			// Acks resume and the new write replicates before its ack.
			if _, _, err := eng.Do([]shard.Op{{Kind: shard.OpPut, Key: 3, Val: 99}}); err != nil {
				t.Fatalf("post-heal write not acked: %v", err)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			drainAll(t, pullers, srcs)
			if err := rep.Poisoned(); err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < keys; k++ {
				want, _ := eng.ReadKey(k)
				if got, _ := rep.Get(k); got != want {
					t.Fatalf("key %d: replica %d, primary %d", k, got, want)
				}
			}
			if _, err := rep.Certify(); err != nil {
				t.Fatalf("certify after heal: %v", err)
			}
		})
	}
}

// TestPartitionWindowPassesByIndex checks the poll-index flavor of
// healing: once the follower's polls move past the window's To index,
// it catches up on its next sync with no explicit Heal call.
func TestPartitionWindowPassesByIndex(t *testing.T) {
	const shards, keys = 1, 8
	cfg := repl.Config{Substrate: "tl2", Shards: shards, Keys: keys}
	rep := repl.NewReplica(cfg)
	eng, err := shard.New(shard.Options{
		Shards: shards, Substrate: "tl2", Keys: keys, Seed: 7,
		Durable: true, Epoch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := repl.NewPuller(rep, 0)
	src := repl.NewFaultSource(repl.EngineSource(eng), 1, 0, 0, 0)
	src.Partition(chaos.PartitionWindow{From: 0, To: 3})

	var refused int
	for i := 0; i < 10; i++ {
		if _, _, err := eng.Do([]shard.Op{{Kind: shard.OpPut, Key: uint64(i % keys), Val: int64(i)}}); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		if err := src.Drain(p); errors.Is(err, repl.ErrPartitioned) {
			refused++
		} else if err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := src.Drain(p); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < keys; k++ {
		want, _ := eng.ReadKey(k)
		if got, _ := rep.Get(k); got != want {
			t.Fatalf("key %d: replica %d, primary %d", k, got, want)
		}
	}
	if _, _, cut := src.Counts(); cut != 3 || refused != 3 {
		t.Fatalf("expected 3 cut polls refusing 3 syncs, got %d cut, %d refused", cut, refused)
	}
}

// TestPartitionsForDeterminism pins the chaos derivation: the same
// (seed, link) yields the same schedule, different seeds vary it, and
// every window is well-formed.
func TestPartitionsForDeterminism(t *testing.T) {
	a := chaos.PartitionsFor(42, 1, 0.8, 100, 20, 4)
	b := chaos.PartitionsFor(42, 1, 0.8, 100, 20, 4)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic: %d vs %d windows", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("window %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	for _, w := range a {
		if w.To <= w.From || w.From >= 100 || w.To > 100+20 {
			t.Fatalf("malformed window %+v", w)
		}
	}
	varied := false
	for seed := int64(0); seed < 20; seed++ {
		ws := chaos.PartitionsFor(seed, 0, 0.5, 100, 20, 4)
		if len(ws) != len(a) {
			varied = true
		}
		for _, w := range ws {
			if w.Asym {
				varied = true
			}
		}
	}
	if !varied {
		t.Fatal("20 seeds produced identical schedules with no asym windows")
	}
}

// TestReplicaSessionFold checks that a replica folds the exactly-once
// session table from the pulled streams — both the single-shard
// (TSession in a shard WAL) and cross-shard (coordinator log) halves —
// and exposes the branded lease epoch, so a promoted follower can
// answer retries for commits it learned only over the wire.
func TestReplicaSessionFold(t *testing.T) {
	const shards, keys = 3, 32
	cfg := repl.Config{Substrate: "tl2", Shards: shards, Keys: keys}
	rep := repl.NewReplica(cfg)
	eng, pullers, srcs := gated(t, shard.Options{
		Shards: shards, Substrate: "tl2", Keys: keys, Seed: 7,
	}, 1, link{rep: rep})
	ka, kb := crossPair(eng.Router(), keys)
	if _, _, _, err := eng.DoSession(11, 1, []shard.Op{{Kind: shard.OpPut, Key: ka, Val: 5}}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := eng.DoSession(12, 7, []shard.Op{
		{Kind: shard.OpPut, Key: ka, Val: 6},
		{Kind: shard.OpPut, Key: kb, Val: 7},
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.BrandLease(4); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	drainAll(t, pullers, srcs)

	sess := rep.Sessions()
	if sess[11].SeqNo != 1 || sess[12].SeqNo != 7 {
		t.Fatalf("replica session table %v", sess)
	}
	if rep.LeaseEpoch() != 4 {
		t.Fatalf("replica lease epoch %d, want 4", rep.LeaseEpoch())
	}
	// The certified promotion image carries the same table.
	mr, err := rep.Certify()
	if err != nil {
		t.Fatal(err)
	}
	if mr.Sessions[11].SeqNo != 1 || mr.Sessions[12].SeqNo != 7 {
		t.Fatalf("certified session table %v", mr.Sessions)
	}
	if mr.LeaseEpoch != 4 {
		t.Fatalf("certified lease epoch %d", mr.LeaseEpoch)
	}
	// A successor engine recovered from the replica's image dedups the
	// retry of a commit it never executed locally.
	e2, err := shard.New(shard.Options{
		Shards: shards, Substrate: "tl2", Keys: keys, Seed: 7,
		Durable: true, RecoverFrom: rep.Image(), Epoch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	commits := e2.Stats().Commits
	res, _, dedup, err := e2.DoSession(12, 7, []shard.Op{
		{Kind: shard.OpPut, Key: ka, Val: 6},
		{Kind: shard.OpPut, Key: kb, Val: 7},
	})
	if err != nil || !dedup {
		t.Fatalf("retry on promoted engine: dedup=%v err=%v", dedup, err)
	}
	if len(res) != 2 {
		t.Fatalf("replayed results %v", res)
	}
	if got := e2.Stats().Commits; got != commits {
		t.Fatalf("retry re-executed on promoted engine: %d -> %d", commits, got)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
}
