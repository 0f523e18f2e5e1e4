package repl

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pushpull/internal/backend"
	"pushpull/internal/mvcc"
	"pushpull/internal/shard"
)

// foldImage is a snapshot's full visible image.
func foldImage(st *mvcc.Store) (map[uint64]int64, uint64) {
	sn := st.Snapshot()
	defer sn.Close()
	img := make(map[uint64]int64)
	sn.Fold(func(k uint64, v int64) { img[k] = v })
	return img, sn.Watermark()
}

// TestPrimaryAndFollowerFoldsAgree: the primary's version stores are
// fed by the live commit stream, the replica's by the pulled WAL,
// both through mvcc.Store.Commit. On every substrate, after a seeded
// mix (typed counter arithmetic included where the substrate has
// typed cells), each shard's fold must be the same image at the same
// watermark on both sides.
func TestPrimaryAndFollowerFoldsAgree(t *testing.T) {
	const shards, keys = 2, 16
	for _, sub := range backend.Substrates() {
		t.Run(sub, func(t *testing.T) {
			rep := NewReplica(Config{Substrate: sub, Shards: shards, Keys: keys})
			p := NewPuller(rep, 0)
			var src *FaultSource
			eng, err := shard.New(shard.Options{
				Shards: shards, Substrate: sub, Keys: keys, Seed: 3,
				Durable: true, Epoch: 1,
				AckCheck: func() error { return src.Drain(p) },
			})
			if err != nil {
				t.Fatal(err)
			}
			src = NewFaultSource(EngineSource(eng), 1, 0, 0, 0)
			typed := mvcc.ModeFor(sub) == mvcc.ModeMap
			if typed {
				// Fund every counter so no withdraw in the mix overdraws
				// (a partial op aborts instead of committing), and
				// install one cas so an absolute lands between deltas.
				for k := uint64(0); k < keys; k++ {
					if _, _, err := eng.Do([]shard.Op{{Kind: shard.OpAdd, Key: k, Val: 1000}}); err != nil {
						t.Fatal(err)
					}
				}
				if res, _, err := eng.Do([]shard.Op{{Kind: shard.OpCAS, Key: 0, Val: 1000, Arg: 1500}}); err != nil || res[0].Val != 1000 {
					t.Fatalf("funding cas: %v %v", res, err)
				}
			}
			rng := rand.New(rand.NewSource(17))
			for i := 0; i < 200; i++ {
				var txn []shard.Op
				for j := 0; j < 1+rng.Intn(3); j++ {
					k := uint64(rng.Intn(keys))
					op := shard.Op{Kind: shard.OpPut, Key: k, Val: int64(rng.Intn(100))}
					switch n := rng.Intn(6); {
					case n == 0:
						op = shard.Op{Kind: shard.OpGet, Key: k}
					case typed && n == 1:
						op = shard.Op{Kind: shard.OpAdd, Key: k, Val: int64(1 + rng.Intn(9))}
					case typed && n == 2:
						op = shard.Op{Kind: shard.OpWd, Key: k, Val: int64(1 + rng.Intn(5))}
					case typed && n == 3:
						op = shard.Op{Kind: shard.OpCAS, Key: k, Val: int64(rng.Intn(20)), Arg: int64(rng.Intn(50))}
					}
					txn = append(txn, op)
				}
				if _, _, err := eng.Do(txn); err != nil {
					t.Fatalf("txn %d %v: %v", i, txn, err)
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			if err := src.Drain(p); err != nil {
				t.Fatal(err)
			}
			if err := rep.Poisoned(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < shards; i++ {
				want, wantW := foldImage(eng.Backend(i).Snapshots())
				got, gotW := foldImage(rep.stores[i])
				if gotW != wantW {
					t.Fatalf("shard %d: replica watermark %d, primary %d", i, gotW, wantW)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shard %d at watermark %d: folds differ\nreplica %s\nprimary %s",
						i, wantW, fmt.Sprint(got), fmt.Sprint(want))
				}
				if len(want) == 0 {
					t.Fatalf("shard %d: empty fold, the mix wrote nothing", i)
				}
			}
		})
	}
}
