package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pushpull/internal/backend"
	"pushpull/internal/kvapi"
	"pushpull/internal/recovery"
	"pushpull/internal/wal"
)

// layoutRun is what one populated 1-shard WAL directory must give back
// after a restart.
type layoutRun struct {
	plain map[uint64]int64 // acked blind puts
	typed string           // Backend().TypedState() at shutdown
	sess  []kvapi.Op       // the request settled as (layoutSession, 1)
}

const layoutSession = 7

func layoutOptions(dir string) Options {
	return Options{
		Substrate: "boost", Keys: 64, Seed: 3, Shards: 1,
		WALDir: dir, SyncPolicy: wal.SyncEveryRecord,
	}
}

// populateLayout commits plain, typed and sessioned transactions on a
// fresh 1-shard server over dir, stops it clean and certified, and
// returns what a restart owes.
func populateLayout(t *testing.T, opts Options) layoutRun {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ok := func(resp kvapi.Response) kvapi.Response {
		t.Helper()
		if resp.Status != kvapi.StatusOK {
			t.Fatalf("txn: %s: %s", resp.Status, resp.Msg)
		}
		return resp
	}
	run := layoutRun{plain: map[uint64]int64{}}
	for k := uint64(1); k <= 8; k++ {
		ok(s.DoTxn([]kvapi.Op{{Kind: kvapi.OpPut, Key: k, Val: int64(100 + k)}}))
		run.plain[k] = int64(100 + k)
	}
	for i := int64(1); i <= 6; i++ {
		ok(s.DoTxn([]kvapi.Op{
			{Kind: kvapi.OpAdd, Key: uint64(i % 3), Val: i},
			{Kind: kvapi.OpSAdd, Key: 10, Val: i % 4},
			{Kind: kvapi.OpQPush, Key: 20, Val: 50 + i},
		}))
	}
	run.sess = []kvapi.Op{{Kind: kvapi.OpPut, Key: 9, Val: 909}, {Kind: kvapi.OpGet, Key: 9}}
	if resp := ok(s.DoTxnSession(run.sess, layoutSession, 1)); resp.DedupHit {
		t.Fatalf("first sessioned execution answered as a dedup hit: %+v", resp)
	}
	run.plain[9] = 909
	run.typed = s.Backend().TypedState()
	if run.typed == "" || run.typed == "{}" {
		t.Fatalf("typed transactions left no typed state: %q", run.typed)
	}
	s.Stop()
	if err := s.FinalCheck(); err != nil {
		t.Fatal(err)
	}
	if err := s.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	return run
}

// checkRestart boots a server on opts and demands everything run
// promised: every acked key over the transactional path, the typed
// keyspace byte for byte, and the dedup table.
func checkRestart(t *testing.T, opts Options, run layoutRun) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s.Stop()
	if s.ShardRecovered().RecoveredTxns() == 0 {
		t.Fatal("restart recovered no transactions")
	}
	for k, v := range run.plain {
		resp := s.DoTxn([]kvapi.Op{{Kind: kvapi.OpGet, Key: k}})
		if resp.Status != kvapi.StatusOK || !resp.Results[0].Found || resp.Results[0].Val != v {
			t.Fatalf("key %d after restart: %+v, want %d", k, resp, v)
		}
	}
	if got := s.Backend().TypedState(); got != run.typed {
		t.Fatalf("typed state after restart:\n got %s\nwant %s", got, run.typed)
	}
	resp := s.DoTxnSession(run.sess, layoutSession, 1)
	if resp.Status != kvapi.StatusOK || !resp.DedupHit || resp.Results[1].Val != 909 {
		t.Fatalf("settled request after restart: %+v, want a dedup hit answering 909", resp)
	}
	if err := s.FinalCheck(); err != nil {
		t.Fatal(err)
	}
}

// nestSegments moves (or copies) dir's flat wal-*.seg files into
// dir/shard-00/ — the shape a 1-shard engine wrote before the flat
// layout rule.
func nestSegments(t *testing.T, dir string, keepFlat bool) {
	t.Helper()
	flat, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(flat) == 0 {
		t.Fatalf("no flat segments to nest in %s (%v)", dir, err)
	}
	nested := filepath.Join(dir, "shard-00")
	if err := os.MkdirAll(nested, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range flat {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(nested, filepath.Base(f)), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if !keepFlat {
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestWALLayoutContract pins what a 1-shard server's WAL directory is,
// and which directories written before the engine became the only
// serving path still boot.
func TestWALLayoutContract(t *testing.T) {
	t.Run("flat", func(t *testing.T) {
		// One shard writes wal-*.seg flat in WALDir: wal.ReadDir reads
		// the whole log and it re-certifies with no engine in sight —
		// then the same directory restarts the server.
		dir := t.TempDir()
		run := populateLayout(t, layoutOptions(dir))
		if _, err := os.Stat(filepath.Join(dir, "shard-00")); !os.IsNotExist(err) {
			t.Fatalf("1-shard server made a shard-00/ directory (stat err %v)", err)
		}
		segs, err := wal.ReadDir(dir)
		if err != nil || len(segs) == 0 {
			t.Fatalf("wal.ReadDir(WALDir) = %d segment(s), %v; want the server's log", len(segs), err)
		}
		reg, err := backend.RegistryFor("boost")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := recovery.RecoverAndCertify(segs, reg)
		if err != nil || len(rep.State.Txns) == 0 {
			t.Fatalf("flat log does not re-certify on its own: %d txn(s), %v", len(rep.State.Txns), err)
		}
		checkRestart(t, layoutOptions(dir), run)
		// The restart archived the old image whole and wrote a fresh flat one.
		if old, _ := filepath.Glob(filepath.Join(dir, "epoch-001", "wal-*.seg")); len(old) != len(segs) {
			t.Fatalf("epoch-001 holds %d archived segment(s), want %d", len(old), len(segs))
		}
		if _, err := os.Stat(filepath.Join(dir, "epoch-001", "coord.log")); err != nil {
			t.Fatalf("coordinator log not archived with its segments: %v", err)
		}
	})

	t.Run("shard-00", func(t *testing.T) {
		// What a 1-shard -replicate primary used to write: shard-00/
		// beside an epoch-branded coord.log.
		dir := t.TempDir()
		opts := layoutOptions(dir)
		opts.Replicate = true
		run := populateLayout(t, opts)
		nestSegments(t, dir, false)
		opts.Epoch = 2 // a restart serves above the recovered epoch
		checkRestart(t, opts, run)
	})

	t.Run("wal-resident-sessions", func(t *testing.T) {
		// What the single-backend server used to write: no coord.log, the
		// dedup table checkpointed into the WAL itself.
		dir := t.TempDir()
		log, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncEveryRecord})
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append(wal.Record{
			Type: wal.TSession, Tx: 5, Session: 5, SeqNo: 3,
			Results: []wal.SessResult{{Val: 33, Found: true}},
		}); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		s, err := New(layoutOptions(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
		resp := s.DoTxnSession([]kvapi.Op{{Kind: kvapi.OpGet, Key: 1}}, 5, 3)
		if resp.Status != kvapi.StatusOK || !resp.DedupHit || resp.Results[0].Val != 33 {
			t.Fatalf("WAL-resident dedup entry after boot: %+v, want a dedup hit answering 33", resp)
		}
	})

	t.Run("mixed", func(t *testing.T) {
		// Both shapes at once is two logs claiming to be shard 0: refused
		// whole, and nothing moved.
		dir := t.TempDir()
		populateLayout(t, layoutOptions(dir))
		nestSegments(t, dir, true)
		before, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		s, err := New(layoutOptions(dir))
		if err == nil {
			s.Stop()
			t.Fatal("server booted on a directory holding both flat and shard-00/ segments")
		}
		if !strings.Contains(err.Error(), "both") {
			t.Fatalf("refusal does not name the mixed layout: %v", err)
		}
		after, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if len(after) != len(before) {
			t.Fatalf("refused boot moved segments: %d flat before, %d after", len(before), len(after))
		}
		if _, err := os.Stat(filepath.Join(dir, "epoch-001")); !os.IsNotExist(err) {
			t.Fatalf("refused boot archived something (stat err %v)", err)
		}
	})
}
