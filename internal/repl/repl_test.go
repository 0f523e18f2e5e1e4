package repl_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pushpull/internal/chaos"
	"pushpull/internal/repl"
	"pushpull/internal/shard"
)

// crossPair finds a pair of keys below limit living on different
// shards (so a two-key transaction is genuinely cross-shard).
func crossPair(router shard.Router, limit uint64) (uint64, uint64) {
	for a := uint64(0); a < limit; a++ {
		for b := a + 1; b < limit; b++ {
			if router.Shard(a) != router.Shard(b) {
				return a, b
			}
		}
	}
	panic("no cross-shard pair")
}

// link describes one in-process follower: its replica and the fault
// rates of the source it pulls through (zero rates make a perfect
// link).
type link struct {
	rep         *repl.Replica
	drop, short float64
}

// gated boots a durable engine (epoch 1 unless opts names one) whose
// acks wait on repl.Gate over links, each follower pulling the engine
// through its own seeded fault source.
func gated(t *testing.T, opts shard.Options, seed int64, links ...link) (*shard.Engine, []*repl.Puller, []*repl.FaultSource) {
	t.Helper()
	var gate func() error
	opts.Durable, opts.AckCheck = true, func() error { return gate() }
	if opts.Epoch == 0 {
		opts.Epoch = 1
	}
	eng, err := shard.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var pullers []*repl.Puller
	var srcs []*repl.FaultSource
	for i, l := range links {
		pullers = append(pullers, repl.NewPuller(l.rep, 0))
		srcs = append(srcs, repl.NewFaultSource(repl.EngineSource(eng), seed, i, l.drop, l.short))
	}
	gate = repl.Gate(eng.Fence, pullers, srcs)
	return eng, pullers, srcs
}

// drainAll is the final drain: heal every source and pull each follower
// up to the primary's durable end.
func drainAll(t *testing.T, pullers []*repl.Puller, srcs []*repl.FaultSource) {
	t.Helper()
	for i, src := range srcs {
		src.Heal()
		if err := src.Drain(pullers[i]); err != nil {
			t.Fatalf("follower %d final drain: %v", i, err)
		}
	}
}

func TestShipAndServe(t *testing.T) {
	const shards, keys = 3, 32
	cfg := repl.Config{Substrate: "tl2", Shards: shards, Keys: keys}
	clean := repl.NewReplica(cfg)
	faulty := repl.NewReplica(cfg)
	eng, pullers, srcs := gated(t, shard.Options{
		Shards: shards, Substrate: "tl2", Keys: keys, Seed: 7,
	}, 99, link{rep: clean}, link{rep: faulty, drop: 0.25, short: 0.3})
	if eng.Epoch() != 1 {
		t.Fatalf("replicated engine epoch = %d, want 1", eng.Epoch())
	}
	rng := rand.New(rand.NewSource(11))
	ka, kb := crossPair(eng.Router(), keys)
	var err error
	for i := 0; i < 300; i++ {
		if rng.Intn(3) == 0 {
			_, _, err = eng.Do([]shard.Op{
				{Kind: shard.OpPut, Key: ka, Val: int64(i)},
				{Kind: shard.OpPut, Key: kb, Val: int64(i)},
			})
		} else {
			_, _, err = eng.Do([]shard.Op{
				{Kind: shard.OpPut, Key: uint64(rng.Intn(keys)), Val: int64(i)},
			})
		}
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	drainAll(t, pullers, srcs)

	for _, rep := range []*repl.Replica{clean, faulty} {
		if err := rep.Poisoned(); err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < keys; k++ {
			want, _ := eng.ReadKey(k)
			got, found := rep.Get(k)
			if !found || got != want {
				t.Fatalf("replica read key %d = (%d,%v), primary has %d", k, got, found, want)
			}
		}
		if _, err := rep.Certify(); err != nil {
			t.Fatalf("replica failed certification: %v", err)
		}
	}
	// Both replicas hold the full stream, so their chains must agree
	// exactly (each a prefix of the other).
	if err := repl.CheckPrefixExtension(clean.Chains(), faulty.Chains()); err != nil {
		t.Fatal(err)
	}
	if err := repl.CheckPrefixExtension(faulty.Chains(), clean.Chains()); err != nil {
		t.Fatal(err)
	}
	if dropped, short, _ := srcs[1].Counts(); dropped == 0 || short == 0 {
		t.Fatalf("faulty source injected too little: %d dropped, %d short", dropped, short)
	}
	if dropped, short, cut := srcs[0].Counts(); dropped+short+cut != 0 {
		t.Fatalf("clean source injected faults: %d dropped, %d short, %d cut", dropped, short, cut)
	}
	if cs := clean.Stats(); cs.Gaps != 0 || cs.Duplicates != 0 {
		t.Fatalf("clean link saw faults: %+v", cs)
	}
}

// TestFailover kills the primary mid-workload (deterministic WAL crash
// plus coordinator death sites armed) and drives the full promotion:
// certify both replicas, promote the most advanced one, check the
// per-stream prefix-extension obligation, restart an engine from the
// promoted image at the next epoch, and verify no acknowledged write
// was lost and no transaction is in doubt.
func TestFailover(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const shards, keys = 4, 32
			cfg := repl.Config{Substrate: "tl2", Shards: shards, Keys: keys}
			repA := repl.NewReplica(cfg)
			repB := repl.NewReplica(cfg)

			plan := chaos.NewPlan(seed).
				WithRate(chaos.SiteCoordPrepared, 0.02).
				WithRate(chaos.SiteCoordCommit, 0.02).
				WithCrash(uint64(40+seed*13), chaos.CrashClean)
			eng, pullers, srcs := gated(t, shard.Options{
				Shards: shards, Substrate: "tl2", Keys: keys, Seed: seed, Plan: &plan,
			}, seed, link{rep: repA, drop: 0.2, short: 0.25}, link{rep: repB, drop: 0.1, short: 0.3})

			rng := rand.New(rand.NewSource(seed))
			ka, kb := crossPair(eng.Router(), keys)
			acked := make(map[uint64]int64)
			for i := 1; i <= 400; i++ {
				v := int64(i)
				var ops []shard.Op
				if rng.Intn(3) == 0 {
					ops = []shard.Op{
						{Kind: shard.OpPut, Key: ka, Val: v},
						{Kind: shard.OpPut, Key: kb, Val: v},
					}
				} else {
					ops = []shard.Op{{Kind: shard.OpPut, Key: uint64(rng.Intn(keys)), Val: v}}
				}
				_, _, err := eng.Do(ops)
				// An ack only counts while the process lives: after the
				// simulated death the in-memory engine is a ghost whose
				// "acks" no real client would ever have received.
				if err == nil && !eng.Crashed() {
					for _, op := range ops {
						acked[op.Key] = op.Val
					}
				}
			}
			if !eng.Crashed() {
				t.Fatal("chaos plan never killed the primary; test exercised nothing")
			}
			eng.Kill()
			drainAll(t, pullers, srcs)

			// The primary's own durable image must certify; it is the
			// reference for what the cluster durably committed.
			primaryRep, err := shard.RecoverAndCertifyImage(eng.Image(), "tl2")
			if err != nil {
				t.Fatalf("primary image: %v", err)
			}

			// Both replicas certify; promote the more advanced one.
			for _, r := range []*repl.Replica{repA, repB} {
				if err := r.Poisoned(); err != nil {
					t.Fatal(err)
				}
				if _, err := r.Certify(); err != nil {
					t.Fatalf("replica certification: %v", err)
				}
			}
			promoted, other := repA, repB
			if total(repB) > total(repA) {
				promoted, other = repB, repA
			}
			promRep, err := promoted.Certify()
			if err != nil {
				t.Fatal(err)
			}
			if promRep.InDoubt != 0 {
				t.Fatalf("%d transactions in doubt after promotion", promRep.InDoubt)
			}
			if err := repl.CheckPrefixExtension(promoted.Chains(), other.Chains()); err != nil {
				t.Fatal(err)
			}

			// Clean crash ⇒ the primary's durable image is exactly the
			// pulled prefix, so the promoted recovery must match the
			// primary's own recovery transaction for transaction.
			if got, want := promRep.RecoveredTxns(), primaryRep.RecoveredTxns(); got != want {
				t.Fatalf("promoted recovered %d txns, primary image has %d", got, want)
			}

			// Serve from the promoted image at the next epoch.
			eng2, err := shard.New(shard.Options{
				Shards: shards, Substrate: "tl2", Keys: keys, Seed: seed,
				Durable: true, RecoverFrom: promoted.Image(), Epoch: promRep.Epoch + 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if eng2.Recovered().InDoubt != 0 {
				t.Fatalf("in-doubt after restart: %d", eng2.Recovered().InDoubt)
			}
			for k, v := range acked {
				got, _ := eng2.ReadKey(k)
				if got < v {
					t.Fatalf("acknowledged write lost: key %d = %d, acked %d", k, got, v)
				}
			}
			// The cross-shard pair must be atomic: both sides always
			// written together.
			va, _ := eng2.ReadKey(ka)
			vb, _ := eng2.ReadKey(kb)
			if va != vb {
				t.Fatalf("cross-shard pair torn after failover: %d vs %d", va, vb)
			}
			if _, _, err := eng2.Do([]shard.Op{{Kind: shard.OpPut, Key: 0, Val: 1}}); err != nil {
				t.Fatalf("promoted engine refuses writes: %v", err)
			}
			if err := eng2.FinalCheck(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func total(r *repl.Replica) uint64 {
	var n uint64
	for s := 0; s < r.Config().Streams(); s++ {
		n += r.AppliedRecords(s)
	}
	return n
}

// TestFencing promotes a replica while the old primary is still alive
// (the false-suspicion / partition case) and verifies the zombie is
// fenced: the new generation's replica refuses its stale bytes, the
// zombie engine stops acknowledging, and its coordinator log refuses
// further decisions.
func TestFencing(t *testing.T) {
	const shards, keys = 2, 16
	cfg := repl.Config{Substrate: "tl2", Shards: shards, Keys: keys}
	repA := repl.NewReplica(cfg)
	pullers := []*repl.Puller{repl.NewPuller(repA, 0)}
	var srcs []*repl.FaultSource
	var gate func() error
	eng, err := shard.New(shard.Options{
		Shards: shards, Substrate: "tl2", Keys: keys, Seed: 3,
		Durable: true, Epoch: 1, AckCheck: func() error { return gate() },
	})
	if err != nil {
		t.Fatal(err)
	}
	srcs = append(srcs, repl.NewFaultSource(repl.EngineSource(eng), 5, 0, 0, 0))
	gate = repl.Gate(eng.Fence, pullers, srcs)
	for i := 0; i < 50; i++ {
		if _, _, err := eng.Do([]shard.Op{{Kind: shard.OpPut, Key: uint64(i % keys), Val: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}

	// Promote repA without killing the primary (it is partitioned away,
	// not dead). The new generation seeds a fresh replica from the new
	// primary's boot checkpoint stream.
	mr, err := repA.Certify()
	if err != nil {
		t.Fatal(err)
	}
	rep2 := repl.NewReplica(cfg)
	eng2, pullers2, srcs2 := gated(t, shard.Options{
		Shards: shards, Substrate: "tl2", Keys: keys, Seed: 3,
		RecoverFrom: repA.Image(), Epoch: mr.Epoch + 1,
	}, 6, link{rep: rep2})
	drainAll(t, pullers2, srcs2)
	if rep2.Epoch() != mr.Epoch+1 {
		t.Fatalf("new-generation replica epoch = %d, want %d", rep2.Epoch(), mr.Epoch+1)
	}

	// The partition heals: the zombie's gate now reaches the
	// new-generation replica — which fences it off.
	pullers = append(pullers, repl.NewPuller(rep2, 0))
	srcs = append(srcs, repl.NewFaultSource(repl.EngineSource(eng), 7, 1, 0, 0))
	gate = repl.Gate(eng.Fence, pullers, srcs)
	_, _, err = eng.Do([]shard.Op{{Kind: shard.OpPut, Key: 1, Val: 999}})
	if !errors.Is(err, shard.ErrFenced) {
		t.Fatalf("zombie commit not fenced: %v", err)
	}
	if !eng.Fenced() {
		t.Fatal("zombie engine not marked fenced")
	}
	if _, _, err := eng.Do([]shard.Op{{Kind: shard.OpGet, Key: 1}}); !errors.Is(err, shard.ErrFenced) {
		t.Fatalf("fenced engine still serving: %v", err)
	}
	if rs := rep2.Stats(); rs.Fenced == 0 {
		t.Fatalf("replica recorded no fenced rejects: %+v", rs)
	}
	// The new primary keeps serving.
	if _, _, err := eng2.Do([]shard.Op{{Kind: shard.OpPut, Key: 2, Val: 7}}); err != nil {
		t.Fatal(err)
	}
	if err := eng2.FinalCheck(); err != nil {
		t.Fatal(err)
	}
}
