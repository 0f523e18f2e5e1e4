package server

import (
	"testing"
	"time"

	"pushpull/internal/kvapi"
	"pushpull/internal/wal"
)

// TestShardSmoke is the `make shard-smoke` target: boot a 4-shard
// durable server, run a mixed one-shot + interactive load campaign with
// 10% cross-shard transactions over the wire, then crash-restart from
// the multi-log image and demand the full sharded certificate — zero
// transport errors, cross-shard commits observed, zero leaked
// sessions/spans/locks, per-shard shadow-machine certification, a
// serializable merged cross-shard commit order, and zero transactions
// left in doubt after restart.
func TestShardSmoke(t *testing.T) {
	const shards = 4
	s, err := New(Options{
		Substrate: "tl2", Shards: shards, Keys: 32 * shards, Seed: 11,
		Durable: true, SyncPolicy: wal.SyncOnCommit,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	for _, leg := range []struct {
		name        string
		interactive bool
	}{{"oneshot", false}, {"interactive", true}} {
		res, err := kvapi.RunLoad(kvapi.LoadParams{
			Addr: addr.String(), Clients: 6,
			Duration: 300 * time.Millisecond,
			Keys:     32 * shards, ReadPct: 50, OpsPerTxn: 3,
			Skew: 1.2, Interactive: leg.interactive, Seed: 11,
			Shards: shards, CrossPct: 10,
		})
		if err != nil {
			t.Fatalf("%s load: %v", leg.name, err)
		}
		if res.Errors != 0 {
			t.Fatalf("%s load: %d StatusError outcomes", leg.name, res.Errors)
		}
		if res.Commits == 0 {
			t.Fatalf("%s load committed nothing", leg.name)
		}
		t.Logf("shard/%s: %s", leg.name, res)
	}

	st := s.Stats()
	if st.Shards != shards {
		t.Fatalf("stats report %d shards, want %d", st.Shards, shards)
	}
	if st.CrossCommits == 0 {
		t.Fatal("no cross-shard commits — the 10% cross mix never spanned shards")
	}
	barriers, syncs := s.GroupStats()
	if syncs == 0 || barriers < syncs {
		t.Fatalf("group commit stats look wrong: %d barriers, %d syncs", barriers, syncs)
	}
	t.Logf("shard: %d commits (%d cross), group commit %d barriers / %d syncs",
		st.Commits, st.CrossCommits, barriers, syncs)

	img := s.ShardImage()
	s.Stop()
	if err := s.LeakCheck(); err != nil {
		t.Fatalf("leak check: %v", err)
	}
	if err := s.FinalCheck(); err != nil {
		t.Fatalf("final certification: %v", err)
	}

	// Crash-restart from the multi-log image: per-shard replay plus the
	// coordinator's consistency cut must certify before serving resumes.
	s2, err := New(Options{
		Substrate: "tl2", Shards: shards, Keys: 32 * shards, Seed: 12,
		Durable: true, SyncPolicy: wal.SyncOnCommit,
		RecoverFrom: img,
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	rep := s2.ShardRecovered()
	if rep.RecoveredTxns() == 0 {
		t.Fatal("restart recovered nothing")
	}
	if rep.InDoubt != 0 {
		t.Fatalf("restart left %d cross-shard transaction(s) in doubt", rep.InDoubt)
	}
	addr2, err := s2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	res, err := kvapi.RunLoad(kvapi.LoadParams{
		Addr: addr2.String(), Clients: 4,
		Duration: 200 * time.Millisecond,
		Keys:     32 * shards, ReadPct: 50, OpsPerTxn: 3,
		Skew: 1.2, Seed: 12, Shards: shards, CrossPct: 10,
	})
	if err != nil {
		t.Fatalf("post-restart load: %v", err)
	}
	if res.Errors != 0 || res.Commits == 0 {
		t.Fatalf("post-restart load: %s", res)
	}
	t.Logf("shard/restart: recovered %d txns (%d redos, %d resolved), then %s",
		rep.RecoveredTxns(), len(rep.Redos), rep.InDoubtResolved, res)
	s2.Stop()
	if err := s2.LeakCheck(); err != nil {
		t.Fatalf("restart leak check: %v", err)
	}
	if err := s2.FinalCheck(); err != nil {
		t.Fatalf("restart final certification: %v", err)
	}
}
