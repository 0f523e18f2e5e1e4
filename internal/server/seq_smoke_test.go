package server

import (
	"testing"
	"time"

	"pushpull/internal/kvapi"
	"pushpull/internal/wal"
)

// TestSeqSmoke is the `make seq-smoke` target: the shard smoke shape
// driven through the deterministic ordered-commit path. A 4-shard
// durable server boots with the sequencer (-seq), runs a mixed
// one-shot + interactive campaign with a cross-shard-heavy mix over the
// wire, then crash-restarts from the multi-log image — recovery must
// fold the forced batch records, leave zero transactions in doubt, and
// re-certify the merged global commit order before serving resumes on
// the sequenced path again.
func TestSeqSmoke(t *testing.T) {
	const shards = 4
	s, err := New(Options{
		Substrate: "tl2", Shards: shards, Keys: 32 * shards, Seed: 11,
		Durable: true, SyncPolicy: wal.SyncOnCommit,
		Seq: true, BatchInterval: time.Millisecond,
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
			Shards: shards, CrossPct: 50,
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
		t.Logf("seq/%s: %s", leg.name, res)
	}

	st := s.Stats()
	if st.CrossCommits == 0 {
		t.Fatal("no cross-shard commits — the 50% cross mix never spanned shards")
	}
	if st.SeqEpochs == 0 || st.SeqBatched == 0 {
		t.Fatalf("sequencer never sealed an epoch: %+v", st)
	}
	if st.SeqBatched < st.CrossCommits {
		t.Fatalf("cross commits (%d) bypassed the sequencer (batched %d)",
			st.CrossCommits, st.SeqBatched)
	}
	t.Logf("seq: %d commits (%d cross) across %d epochs (max batch %d)",
		st.Commits, st.CrossCommits, st.SeqEpochs, st.SeqMaxBatch)

	img := s.ShardImage()
	s.Stop()
	if err := s.LeakCheck(); err != nil {
		t.Fatalf("leak check: %v", err)
	}
	if err := s.FinalCheck(); err != nil {
		t.Fatalf("final certification: %v", err)
	}

	// Crash-restart mid-history: the durable image ends wherever the
	// last batch force left it, so recovery folds batch records, rolls
	// forward any unforced branch CMTs, and must certify with zero
	// transactions in doubt.
	s2, err := New(Options{
		Substrate: "tl2", Shards: shards, Keys: 32 * shards, Seed: 12,
		Durable: true, SyncPolicy: wal.SyncOnCommit,
		Seq: true, BatchInterval: time.Millisecond,
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
		Skew: 1.2, Seed: 12, Shards: shards, CrossPct: 50,
	})
	if err != nil {
		t.Fatalf("post-restart load: %v", err)
	}
	if res.Errors != 0 || res.Commits == 0 {
		t.Fatalf("post-restart load: %s", res)
	}
	t.Logf("seq/restart: recovered %d txns (%d redos, %d batches, %d resolved), then %s",
		rep.RecoveredTxns(), len(rep.Redos), rep.CoordBatches, rep.InDoubtResolved, res)
	s2.Stop()
	if err := s2.LeakCheck(); err != nil {
		t.Fatalf("restart leak check: %v", err)
	}
	if err := s2.FinalCheck(); err != nil {
		t.Fatalf("restart final certification: %v", err)
	}
}
