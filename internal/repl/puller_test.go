package repl_test

import (
	"math/rand"
	"testing"

	"pushpull/internal/repl"
	"pushpull/internal/shard"
)

// TestPullerCatchUp drives the asynchronous pull path: a primary runs
// with no ack gate at all; a follower polls its durable streams
// through EngineSource and must converge to the primary's state, with
// lag gauges draining to zero at quiescence.
func TestPullerCatchUp(t *testing.T) {
	const shards, keys = 3, 32
	eng, err := shard.New(shard.Options{
		Shards: shards, Substrate: "tl2", Keys: keys, Seed: 9,
		Durable: true, SegmentBytes: 2 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := repl.Config{Substrate: "tl2", Shards: shards, Keys: keys}
	rep := repl.NewReplica(cfg)
	p := repl.NewPuller(rep, 512) // small budget: forces multi-chunk polls
	src := repl.EngineSource(eng)

	rng := rand.New(rand.NewSource(21))
	ka, kb := crossPair(eng.Router(), keys)
	for i := 0; i < 200; i++ {
		if rng.Intn(4) == 0 {
			_, _, err = eng.Do([]shard.Op{
				{Kind: shard.OpPut, Key: ka, Val: int64(i)},
				{Kind: shard.OpPut, Key: kb, Val: int64(i)},
			})
		} else {
			_, _, err = eng.Do([]shard.Op{{Kind: shard.OpPut, Key: uint64(rng.Intn(keys)), Val: int64(i)}})
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%25 == 0 {
			if _, err := p.Sync(src); err != nil {
				t.Fatalf("mid-run sync: %v", err)
			}
		}
	}
	if _, err := p.Sync(src); err != nil {
		t.Fatal(err)
	}
	for s, lag := range p.Lag() {
		if lag != 0 {
			t.Fatalf("stream %d lag %d at quiescence", s, lag)
		}
	}
	for k := uint64(0); k < keys; k++ {
		want, _ := eng.ReadKey(k)
		got, found := rep.Get(k)
		if !found || got != want {
			t.Fatalf("key %d: follower (%d,%v), primary %d", k, got, found, want)
		}
	}
	if _, err := rep.Certify(); err != nil {
		t.Fatal(err)
	}
	// A second sync over a drained source applies nothing.
	n, err := p.Sync(src)
	if err != nil || n != 0 {
		t.Fatalf("idle sync applied %d bytes, err %v", n, err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}
