package server

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pushpull/internal/kvapi"
	"pushpull/internal/wal"
)

// mustTxn sends one one-shot transaction and requires StatusOK.
func mustTxn(t *testing.T, c *kvapi.Client, txn []kvapi.Op) kvapi.Response {
	t.Helper()
	resp, err := c.Do(txn)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != kvapi.StatusOK {
		t.Fatalf("txn status %s: %s", resp.Status, resp.Msg)
	}
	return resp
}

// typedCampaign drives a deterministic typed workload over the wire —
// counters (incr, wd, cas), a set (sadd/srem), and a queue
// (qpush/qpop) — and returns the expected counter image.
func typedCampaign(t *testing.T, c *kvapi.Client, rounds int) map[uint64]int64 {
	t.Helper()
	ctr := map[uint64]int64{}
	for i := 0; i < rounds; i++ {
		k := uint64(1 + i%4)
		mustTxn(t, c, []kvapi.Op{
			{Kind: kvapi.OpAdd, Key: k, Val: int64(i + 1)},
			{Kind: kvapi.OpSAdd, Key: 10, Val: int64(i % 5)},
			{Kind: kvapi.OpQPush, Key: 20, Val: int64(100 + i)},
		})
		ctr[k] += int64(i + 1)
	}
	// Remove one member, pop the queue head, withdraw within balance,
	// and land a cas — the full control/partial fragment on committed
	// state.
	mustTxn(t, c, []kvapi.Op{{Kind: kvapi.OpSRem, Key: 10, Val: 0}})
	resp := mustTxn(t, c, []kvapi.Op{{Kind: kvapi.OpQPop, Key: 20}})
	if v := resp.Results[0].Val; v != 100 {
		t.Fatalf("qpop = %d, want 100 (FIFO head)", v)
	}
	mustTxn(t, c, []kvapi.Op{{Kind: kvapi.OpWd, Key: 1, Val: 1}})
	ctr[1]--
	resp = mustTxn(t, c, []kvapi.Op{{Kind: kvapi.OpCAS, Key: 2, Val: ctr[2], Arg: 777}})
	if v := resp.Results[0].Val; v != ctr[2] {
		t.Fatalf("cas returned %d, want old value %d", v, ctr[2])
	}
	ctr[2] = 777
	// Cross-check the counters over the wire.
	for k, v := range ctr {
		resp := mustTxn(t, c, []kvapi.Op{{Kind: kvapi.OpCGet, Key: k}})
		if got := resp.Results[0].Val; got != v {
			t.Fatalf("cget %d = %d, want %d", k, got, v)
		}
	}
	return ctr
}

// TestOpsSmoke (ops-smoke, recovery half): a typed wire campaign on a
// durable boosted server, then a restart from the surviving WAL — the
// logical-op records must rebuild a byte-identical typed keyspace, and
// the restarted server must serve typed traffic against it.
func TestOpsSmoke(t *testing.T) {
	s1, err := New(Options{
		Substrate: "boost", Keys: 64, Seed: 11,
		Durable: true, SyncPolicy: wal.SyncEveryRecord,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr.String())
	ctr := typedCampaign(t, c, 24)

	want := s1.Backend().TypedState()
	if want == "{}" || want == "" {
		t.Fatalf("typed campaign left no typed state: %q", want)
	}
	if st := s1.Stats(); st.TypedOps == 0 {
		t.Fatalf("server counted no typed ops: %+v", st)
	}
	img := s1.ShardImage()
	c.Close()
	s1.Stop()
	if err := s1.FinalCheck(); err != nil {
		t.Fatalf("pre-restart final check: %v", err)
	}
	if err := s1.LeakCheck(); err != nil {
		t.Fatalf("pre-restart leaks: %v", err)
	}

	// Restart. New refuses to serve unless recovery re-certifies, so
	// construction succeeding IS the certificate; the typed image must
	// match byte for byte.
	s2, err := New(Options{
		Substrate: "boost", Keys: 64, Seed: 11,
		Durable: true, SyncPolicy: wal.SyncEveryRecord,
		RecoverFrom: img,
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := s2.Backend().TypedState(); got != want {
		t.Fatalf("recovered typed state diverged:\n got %s\nwant %s", got, want)
	}

	// The recovered cells keep working: counters resume from their
	// recovered values, the queue pops in the surviving order.
	addr2, err := s2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c2 := dial(t, addr2.String())
	resp := mustTxn(t, c2, []kvapi.Op{
		{Kind: kvapi.OpAdd, Key: 1, Val: 5},
		{Kind: kvapi.OpCGet, Key: 1},
		{Kind: kvapi.OpQPop, Key: 20},
	})
	if got := resp.Results[1].Val; got != ctr[1]+5 {
		t.Fatalf("post-recovery counter = %d, want %d", got, ctr[1]+5)
	}
	if got := resp.Results[2].Val; got != 101 {
		t.Fatalf("post-recovery qpop = %d, want 101 (next FIFO head)", got)
	}
	c2.Close()
	s2.Stop()
	if err := s2.FinalCheck(); err != nil {
		t.Fatalf("post-recovery final check: %v", err)
	}
}

// TestOpsTypedVsBlindRMW (ops-smoke, contention half): the same skewed
// hot counters driven twice against a fresh boosted server — through
// the typed surface (INCR-heavy one-shot transactions whose hot cells
// commute under shared abstract locks) and through the blind
// read-modify-write every untyped client is forced into (interactive
// GET-then-PUT sessions, whose answered reads go stale the moment a
// peer commits). Both servers pass the full certification gate at
// shutdown, so the gap is a property of two serializable executions:
// the typed surface's abort ratio must not exceed the blind one's.
func TestOpsTypedVsBlindRMW(t *testing.T) {
	const (
		clients, keys, opsPerTxn = 4, 16, 2
		skew, seed               = 1.4, 3
		window                   = 300 * time.Millisecond
	)
	opts := Options{Substrate: "boost", Keys: keys, Seed: seed, MaxInflight: 2 * clients, MaxQueue: 4 * clients}
	certify := func(s *Server) {
		t.Helper()
		s.Stop()
		if err := s.LeakCheck(); err != nil {
			t.Fatal(err)
		}
		if err := s.FinalCheck(); err != nil {
			t.Fatal(err)
		}
	}
	ratio := func(aborts, commits uint64) float64 { return float64(aborts) / float64(aborts+commits) }

	s, addr := startServer(t, opts)
	mix, err := kvapi.ParseOpMix("incr:80,cget:10,cas:10")
	if err != nil {
		t.Fatal(err)
	}
	typed, err := kvapi.RunLoad(kvapi.LoadParams{
		Addr: addr, Clients: clients, Duration: window, Keys: keys,
		OpsPerTxn: opsPerTxn, OpMix: mix, Skew: skew, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	certify(s)

	// The blind leg confines its keys to the typed leg's counter
	// partition [0, keys/2) so both hammer the same hot cells.
	s, addr = startServer(t, opts)
	var commits, aborts atomic.Uint64
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := kvapi.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(seed + int64(id)*7919))
			zipf := rand.NewZipf(rng, skew, 1, keys-1)
			for time.Now().Before(deadline) {
				committed, err := blindIncrTxn(c, opsPerTxn, func() uint64 { return zipf.Uint64() % (keys / 2) })
				if err != nil {
					t.Error(err)
					return
				}
				if committed {
					commits.Add(1)
				} else {
					aborts.Add(1)
				}
			}
		}(id)
	}
	wg.Wait()
	certify(s)

	if typed.Commits == 0 || commits.Load() == 0 {
		t.Fatalf("idle leg: typed %d commits, blind %d commits", typed.Commits, commits.Load())
	}
	tr, br := ratio(typed.Aborts, typed.Commits), ratio(aborts.Load(), commits.Load())
	t.Logf("typed: %d commits, abort ratio %.3f; blind: %d commits, abort ratio %.3f",
		typed.Commits, tr, commits.Load(), br)
	if tr > br {
		t.Fatalf("typed abort ratio %.3f exceeds blind %.3f on a hot-counter load", tr, br)
	}
}

// blindIncrTxn is one GET-then-PUT increment transaction over an
// interactive session; a non-OK status mid-session is an abort (the
// server has closed the session).
func blindIncrTxn(c *kvapi.Client, ops int, pick func() uint64) (committed bool, err error) {
	for {
		resp, err := c.Begin()
		if err != nil {
			return false, err
		}
		if resp.Status == kvapi.StatusOK {
			break
		}
		if resp.Status != kvapi.StatusBusy {
			return false, fmt.Errorf("begin: %s %s", resp.Status, resp.Msg)
		}
		time.Sleep(time.Duration(resp.RetryAfterMs) * time.Millisecond)
	}
	for j := 0; j < ops; j++ {
		key := pick()
		resp, err := c.Get(key)
		if err != nil || resp.Status != kvapi.StatusOK {
			return false, err
		}
		val := int64(0)
		if len(resp.Results) > 0 {
			val = resp.Results[0].Val
		}
		if resp, err = c.Put(key, val+1); err != nil || resp.Status != kvapi.StatusOK {
			return false, err
		}
	}
	resp, err := c.Commit()
	return err == nil && resp.Status == kvapi.StatusOK, err
}

// TestOpsFollowerFold (ops-smoke, replication half): typed writes on a
// replicated boosted primary ship as logical-op records; the follower's
// fold must (a) answer counter reads from its replica image and (b) on
// promotion, rebuild a typed keyspace byte-identical to the primary's.
func TestOpsFollowerFold(t *testing.T) {
	const shards, keys = 2, 32
	prim, err := New(Options{
		Substrate: "boost", Shards: shards, Keys: keys, Seed: 21,
		Replicate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	addrP, err := prim.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Options{
		Substrate: "boost", Shards: shards, Keys: keys, Seed: 22,
		Follow: addrP.String(), PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addrF, err := f.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c, err := kvapi.Dial(addrP.String())
	if err != nil {
		t.Fatal(err)
	}
	ctr := typedCampaign(t, c, 24)
	c.Close()

	// The follower's committed fold serves the counters under the
	// typed namespace.
	waitCaughtUp(t, f)
	rdr, err := kvapi.Dial(addrF.String())
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range ctr {
		resp, err := rdr.Do([]kvapi.Op{{Kind: kvapi.OpCGet, Key: k}})
		if err != nil || resp.Status != kvapi.StatusOK {
			t.Fatalf("follower cget %d: %v %s", k, err, resp.Status)
		}
		if got := resp.Results[0].Val; got != v {
			t.Fatalf("follower cget %d = %d, want %d", k, got, v)
		}
	}
	rdr.Close()

	// Promotion replays the shipped logical ops into a fresh engine;
	// the rebuilt typed keyspace must match the primary's shard for
	// shard, byte for byte.
	want := make([]string, shards)
	for i := 0; i < shards; i++ {
		want[i] = prim.Engine().Backend(i).TypedState()
	}
	prim.Stop()
	if _, err := f.Promote(); err != nil {
		t.Fatalf("promotion: %v", err)
	}
	for i := 0; i < shards; i++ {
		if got := f.Engine().Backend(i).TypedState(); got != want[i] {
			t.Fatalf("shard %d typed state diverged:\n got %s\nwant %s", i, got, want[i])
		}
	}

	// The promoted primary serves typed traffic on the folded cells.
	c2, err := kvapi.Dial(addrF.String())
	if err != nil {
		t.Fatal(err)
	}
	resp := mustTxn(t, c2, []kvapi.Op{
		{Kind: kvapi.OpAdd, Key: 1, Val: 3},
		{Kind: kvapi.OpCGet, Key: 1},
	})
	if got := resp.Results[1].Val; got != ctr[1]+3 {
		t.Fatalf("post-promotion counter = %d, want %d", got, ctr[1]+3)
	}
	c2.Close()

	f.Stop()
	if err := f.FinalCheck(); err != nil {
		t.Fatalf("promoted final check: %v", err)
	}
	if err := f.LeakCheck(); err != nil {
		t.Fatalf("promoted leak check: %v", err)
	}
	if err := prim.LeakCheck(); err != nil {
		t.Fatalf("primary leak check: %v", err)
	}
}
