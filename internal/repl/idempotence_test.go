package repl_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pushpull/internal/backend"
	"pushpull/internal/recovery"
	"pushpull/internal/repl"
	"pushpull/internal/shard"
	"pushpull/internal/wal"
)

// logSource serves one bare WAL as the only shard stream of a
// one-shard replica; its coordinator stream stays empty.
type logSource struct{ log *wal.Log }

func (s logSource) Streams() int { return 2 }

func (s logSource) PollStream(stream, seg, off, max int) (repl.StreamChunk, error) {
	if stream != 0 {
		return repl.StreamChunk{Epoch: 1}, nil
	}
	data, next, more, err := s.log.DurableAt(seg, off, max)
	return repl.StreamChunk{Data: data, Next: next, More: more, Epoch: 1}, err
}

// TestReplayIdempotence is the duplicated-batch satellite: applying the
// same WAL suffix twice (a retransmitted stream batch) must leave a
// replica's replayed state byte-for-byte unchanged, across all six
// substrates. Each substrate runs a workload through a WAL that two
// replicas pull after every commit — one over a perfect link, one over
// a lossy one that drops polls and answers short — and then the last
// segment's suffix is explicitly re-applied. Both replicas must agree
// exactly with a from-scratch recovery of the log.
func TestReplayIdempotence(t *testing.T) {
	const keys = 24
	for _, sub := range backend.Substrates() {
		sub := sub
		t.Run(sub, func(t *testing.T) {
			cfg := repl.Config{Substrate: sub, Shards: 1, Keys: keys}
			clean := repl.NewReplica(cfg)
			duped := repl.NewReplica(cfg)

			log := wal.MustOpen(wal.Options{Policy: wal.SyncOnCommit, SegmentBytes: 2 << 10})
			pullers := []*repl.Puller{repl.NewPuller(clean, 0), repl.NewPuller(duped, 0)}
			srcs := []*repl.FaultSource{
				repl.NewFaultSource(logSource{log}, 33, 0, 0, 0),
				repl.NewFaultSource(logSource{log}, 33, 1, 0.3, 0.4),
			}
			gate := repl.Gate(func(uint64) { t.Fatal("a one-epoch log fenced") }, pullers, srcs)
			be, err := backend.NewBackend(backend.Config{
				Substrate: sub, Keys: keys, Seed: 7,
				Durable: backend.NewGroupCommit(log),
			})
			if err != nil {
				t.Fatal(err)
			}
			be.Recorder().AttachWAL(wal.NewMachineHook(log))

			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 120; i++ {
				k := uint64(rng.Intn(keys))
				if err := be.Atomic(fmt.Sprintf("t%d", i), func(v backend.View) error {
					old, _, err := v.Get(k)
					if err != nil {
						return err
					}
					return v.Put(k, old+int64(i)+1)
				}); err != nil {
					t.Fatalf("txn %d: %v", i, err)
				}
				if err := gate(); err != nil {
					t.Fatalf("txn %d not replicated: %v", i, err)
				}
			}

			segs := log.Segments()
			if len(segs) < 2 {
				t.Fatalf("workload too small to rotate segments: %d", len(segs))
			}
			// Re-apply the same WAL suffix twice, explicitly: the whole
			// last segment, then a strict tail of it.
			last := len(segs) - 1
			before := duped.AppliedRecords(0)
			for _, b := range []repl.Batch{
				{Stream: 0, Seg: last, Off: 0, Data: segs[last], Epoch: 1},
				{Stream: 0, Seg: last, Off: len(segs[last]) / 2, Data: segs[last][len(segs[last])/2:], Epoch: 1},
			} {
				if err := duped.Apply(b); err != nil {
					t.Fatalf("duplicate suffix refused: %v", err)
				}
			}
			if got := duped.AppliedRecords(0); got != before {
				t.Fatalf("duplicate suffix changed replay: %d records -> %d", before, got)
			}
			if ds := duped.Stats(); ds.Duplicates < 2 {
				t.Fatalf("duplicates not counted: %+v", ds)
			}

			// Reference: from-scratch recovery + certification of the log.
			reg, err := backend.RegistryFor(sub)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := recovery.RecoverAndCertify(segs, reg)
			if err != nil {
				t.Fatal(err)
			}
			want := backend.FoldKV(rep.Certified)

			for _, r := range []*repl.Replica{clean, duped} {
				if err := r.Poisoned(); err != nil {
					t.Fatal(err)
				}
				chain := r.Chains()[0]
				if len(chain) != len(rep.State.Txns) {
					t.Fatalf("replica chain %d commits, recovery has %d", len(chain), len(rep.State.Txns))
				}
				for i, txn := range rep.State.Txns {
					if chain[i] != txn.Name {
						t.Fatalf("chain[%d] = %q, recovery has %q", i, chain[i], txn.Name)
					}
				}
				for k := uint64(0); k < keys; k++ {
					wv, wok := want[k]
					gv, gok := r.Get(k)
					switch sub {
					case "boost", "hybrid":
						if gok != wok || (wok && gv != wv) {
							t.Fatalf("key %d: replica (%d,%v), recovery (%d,%v)", k, gv, gok, wv, wok)
						}
					default:
						if !gok || gv != wv {
							t.Fatalf("key %d: replica (%d,%v), recovery fold %d", k, gv, gok, wv)
						}
					}
				}
			}
		})
	}
}

// TestReplayIdempotenceSharded runs the same duplicated-suffix check
// against the sharded engine's full stream set: every shard WAL plus
// the coordinator log is re-applied in full to a replica that already
// holds it, and the replica must be unchanged, still certify, and
// still match a clean replica record for record.
func TestReplayIdempotenceSharded(t *testing.T) {
	for _, sub := range []string{"tl2", "boost"} {
		sub := sub
		t.Run(sub, func(t *testing.T) {
			const shards, keys = 3, 24
			cfg := repl.Config{Substrate: sub, Shards: shards, Keys: keys}
			clean := repl.NewReplica(cfg)
			duped := repl.NewReplica(cfg)
			eng, pullers, srcs := gated(t, shard.Options{
				Shards: shards, Substrate: sub, Keys: keys, Seed: 11,
			}, 77, link{rep: clean}, link{rep: duped, drop: 0.3, short: 0.4})
			var err error
			rng := rand.New(rand.NewSource(13))
			ka, kb := crossPair(eng.Router(), keys)
			for i := 0; i < 150; i++ {
				if rng.Intn(3) == 0 {
					_, _, err = eng.Do([]shard.Op{
						{Kind: shard.OpPut, Key: ka, Val: int64(i)},
						{Kind: shard.OpPut, Key: kb, Val: int64(i)},
					})
				} else {
					_, _, err = eng.Do([]shard.Op{{Kind: shard.OpPut, Key: uint64(rng.Intn(keys)), Val: int64(i)}})
				}
				if err != nil {
					t.Fatalf("txn %d: %v", i, err)
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			drainAll(t, pullers, srcs)

			// Re-apply the replica's entire held image — every shard
			// stream segment and the coordinator log — as duplicates.
			img := duped.Image()
			var before []uint64
			for s := 0; s < cfg.Streams(); s++ {
				before = append(before, duped.AppliedRecords(s))
			}
			for s, segs := range img.Shards {
				for seg, data := range segs {
					if err := duped.Apply(repl.Batch{Stream: s, Seg: seg, Off: 0, Data: data, Epoch: duped.Epoch()}); err != nil {
						t.Fatalf("stream %d seg %d duplicate refused: %v", s, seg, err)
					}
				}
			}
			if err := duped.Apply(repl.Batch{Stream: cfg.CoordStream(), Seg: 0, Off: 0, Data: img.Coord, Epoch: duped.Epoch()}); err != nil {
				t.Fatalf("coordinator duplicate refused: %v", err)
			}
			for s := 0; s < cfg.Streams(); s++ {
				if got := duped.AppliedRecords(s); got != before[s] {
					t.Fatalf("stream %d: duplicate replay changed records %d -> %d", s, before[s], got)
				}
			}

			if err := repl.CheckPrefixExtension(clean.Chains(), duped.Chains()); err != nil {
				t.Fatal(err)
			}
			if err := repl.CheckPrefixExtension(duped.Chains(), clean.Chains()); err != nil {
				t.Fatal(err)
			}
			for _, r := range []*repl.Replica{clean, duped} {
				if _, err := r.Certify(); err != nil {
					t.Fatal(err)
				}
				for k := uint64(0); k < keys; k++ {
					want, _ := eng.ReadKey(k)
					got, found := r.Get(k)
					if !found || got != want {
						t.Fatalf("key %d: replica (%d,%v), primary %d", k, got, found, want)
					}
				}
			}
		})
	}
}
