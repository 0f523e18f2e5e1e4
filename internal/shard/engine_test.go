package shard

import (
	"errors"
	"testing"

	"pushpull/internal/chaos"
)

func newTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	if opts.Keys == 0 {
		opts.Keys = 256
	}
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	e, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

// keysOnDistinctShards returns one key homed on each of n distinct
// shards (scanning upward from 0).
func keysOnDistinctShards(t *testing.T, e *Engine, n int) []uint64 {
	t.Helper()
	keys := make([]uint64, 0, n)
	used := make(map[int]bool, n)
	for k := uint64(0); k < uint64(e.opts.Keys) && len(keys) < n; k++ {
		if sid := e.router.Shard(k); !used[sid] {
			used[sid] = true
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("could not find keys on %d distinct shards", n)
	}
	return keys
}

func finishEngine(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.LeakCheck(); err != nil {
		t.Fatalf("LeakCheck: %v", err)
	}
	if err := e.FinalCheck(); err != nil {
		t.Fatalf("FinalCheck: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestSingleShardDo(t *testing.T) {
	e := newTestEngine(t, Options{Shards: 1})
	res, _, err := e.Do([]Op{
		{Kind: OpPut, Key: 1, Val: 10},
		{Kind: OpGet, Key: 1},
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !res[1].Found || res[1].Val != 10 {
		t.Fatalf("read back %+v", res[1])
	}
	s := e.Stats()
	if s.CrossCommits != 0 || s.Commits == 0 {
		t.Fatalf("stats %+v", s)
	}
	finishEngine(t, e)
}

func TestCrossShardDo(t *testing.T) {
	for _, sub := range []string{"tl2", "pess", "boost"} {
		t.Run(sub, func(t *testing.T) {
			e := newTestEngine(t, Options{Shards: 4, Substrate: sub})
			keys := keysOnDistinctShards(t, e, 3)
			ops := make([]Op, 0, 6)
			for i, k := range keys {
				ops = append(ops, Op{Kind: OpPut, Key: k, Val: int64(100 + i)})
			}
			for _, k := range keys {
				ops = append(ops, Op{Kind: OpGet, Key: k})
			}
			res, _, err := e.Do(ops)
			if err != nil {
				t.Fatalf("cross Do: %v", err)
			}
			for i := range keys {
				r := res[len(keys)+i]
				if !r.Found || r.Val != int64(100+i) {
					t.Fatalf("key %d read back %+v", keys[i], r)
				}
			}
			// Quiescent verification on the home shards.
			for i, k := range keys {
				if v, ok := e.ReadKey(k); !ok || v != int64(100+i) {
					t.Fatalf("ReadKey(%d) = %d,%v", k, v, ok)
				}
			}
			if s := e.Stats(); s.CrossCommits != 1 {
				t.Fatalf("stats %+v", s)
			}
			finishEngine(t, e)
		})
	}
}

func TestCrossShardMany(t *testing.T) {
	e := newTestEngine(t, Options{Shards: 4})
	keys := keysOnDistinctShards(t, e, 4)
	for round := 0; round < 50; round++ {
		a, b := keys[round%4], keys[(round+1)%4]
		_, _, err := e.Do([]Op{
			{Kind: OpPut, Key: a, Val: int64(round)},
			{Kind: OpPut, Key: b, Val: int64(round)},
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	coord, perShard := e.CrossOrders()
	if len(coord) != 50 {
		t.Fatalf("%d coordinator commits, want 50", len(coord))
	}
	total := 0
	for _, c := range perShard {
		total += len(c)
	}
	if total != 100 {
		t.Fatalf("%d branch commits, want 100", total)
	}
	finishEngine(t, e)
}

func TestInteractiveTxn(t *testing.T) {
	e := newTestEngine(t, Options{Shards: 4})
	keys := keysOnDistinctShards(t, e, 2)

	tx := e.Begin()
	if err := tx.Put(keys[0], 7); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(keys[1], 8); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := tx.Get(keys[0]); err != nil || !ok || v != 7 {
		t.Fatalf("own write: %d,%v,%v", v, ok, err)
	}
	if tx.Participants() != 2 {
		t.Fatalf("participants %d", tx.Participants())
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if v, ok := e.ReadKey(keys[1]); !ok || v != 8 {
		t.Fatalf("committed value missing: %d,%v", v, ok)
	}

	// Abort rolls back both branches.
	tx = e.Begin()
	if err := tx.Put(keys[0], 99); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(keys[1], 99); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.ReadKey(keys[0]); v != 7 {
		t.Fatalf("aborted write leaked: %d", v)
	}

	// Single-participant interactive commit takes the direct path.
	tx = e.Begin()
	if err := tx.Put(keys[0], 11); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.CrossCommits != 1 {
		t.Fatalf("direct commit should not count as cross: %+v", s)
	}

	// Abandon mid-transaction aborts cleanly.
	tx = e.Begin()
	if err := tx.Put(keys[1], 55); err != nil {
		t.Fatal(err)
	}
	tx.Abandon()
	if v, _ := e.ReadKey(keys[1]); v != 8 {
		t.Fatalf("abandoned write leaked: %d", v)
	}
	finishEngine(t, e)
}

func TestCrashRollForward(t *testing.T) {
	// The coordinator dies right after the forced commit decision: no
	// branch CMT reaches any shard's durable prefix, yet the
	// transaction is globally committed. Recovery must roll every
	// branch forward.
	plan := chaos.NewPlan(7).WithScript(chaos.SiteCoordCommit, []bool{true})
	e := newTestEngine(t, Options{Shards: 4, Durable: true, Plan: &plan})
	keys := keysOnDistinctShards(t, e, 2)

	// A durable single-shard write before the crash.
	if _, _, err := e.Do([]Op{{Kind: OpPut, Key: keys[0], Val: 1}}); err != nil {
		t.Fatal(err)
	}
	// The cross-shard transaction that triggers the scripted death. The
	// decision is durable, so it commits in memory too.
	if _, _, err := e.Do([]Op{
		{Kind: OpPut, Key: keys[0], Val: 2},
		{Kind: OpPut, Key: keys[1], Val: 3},
	}); err != nil {
		t.Fatalf("cross Do: %v", err)
	}
	if !e.Crashed() {
		t.Fatal("scripted coordinator death did not fire")
	}
	img := e.Image()

	e2 := newTestEngine(t, Options{Shards: 4, Durable: true, RecoverFrom: img})
	rep := e2.Recovered()
	if rep.InDoubt != 0 {
		t.Fatalf("in-doubt after restart: %d", rep.InDoubt)
	}
	if rep.InDoubtResolved != 1 || len(rep.Redos) != 2 {
		t.Fatalf("resolution: %+v", rep)
	}
	if v, ok := e2.ReadKey(keys[0]); !ok || v != 2 {
		t.Fatalf("rolled-forward value: %d,%v", v, ok)
	}
	if v, ok := e2.ReadKey(keys[1]); !ok || v != 3 {
		t.Fatalf("rolled-forward value: %d,%v", v, ok)
	}
	finishEngine(t, e2)
	_ = e.Close()
}

func TestCrashBeforeDecision(t *testing.T) {
	// Death between prepare and the decision record: the transaction
	// aborts in memory AND by presumed abort at recovery — consistent.
	plan := chaos.NewPlan(7).WithScript(chaos.SiteCoordPrepared, []bool{true})
	e := newTestEngine(t, Options{Shards: 4, Durable: true, Plan: &plan})
	keys := keysOnDistinctShards(t, e, 2)

	if _, _, err := e.Do([]Op{{Kind: OpPut, Key: keys[0], Val: 1}}); err != nil {
		t.Fatal(err)
	}
	_, _, err := e.Do([]Op{
		{Kind: OpPut, Key: keys[0], Val: 2},
		{Kind: OpPut, Key: keys[1], Val: 3},
	})
	if !errors.Is(err, ErrCoordCrashed) {
		t.Fatalf("want ErrCoordCrashed, got %v", err)
	}
	img := e.Image()

	e2 := newTestEngine(t, Options{Shards: 4, Durable: true, RecoverFrom: img})
	rep := e2.Recovered()
	if rep.InDoubt != 0 || rep.InDoubtResolved != 0 || len(rep.Redos) != 0 {
		t.Fatalf("presumed abort should need no resolution: %+v", rep)
	}
	if rep.CoordCommits != 0 {
		t.Fatalf("no decision should be durable: %+v", rep)
	}
	if v, ok := e2.ReadKey(keys[0]); !ok || v != 1 {
		t.Fatalf("pre-crash value: %d,%v", v, ok)
	}
	if v, _ := e2.ReadKey(keys[1]); v == 3 {
		t.Fatal("aborted write resurrected")
	}
	finishEngine(t, e2)
	_ = e.Close()
}

func TestShardCountMismatch(t *testing.T) {
	e := newTestEngine(t, Options{Shards: 4, Durable: true})
	keys := keysOnDistinctShards(t, e, 2)
	if _, _, err := e.Do([]Op{
		{Kind: OpPut, Key: keys[0], Val: 1},
		{Kind: OpPut, Key: keys[1], Val: 2},
	}); err != nil {
		t.Fatal(err)
	}
	img := e.Image()
	if _, err := New(Options{Shards: 2, Substrate: "tl2", Keys: 256, Seed: 1, Durable: true, RecoverFrom: img}); err == nil {
		t.Fatal("expected shard-count mismatch refusal")
	}
	_ = e.Close()
}

func TestDurableRestartClean(t *testing.T) {
	// Clean shutdown and restart: everything recovers, nothing to
	// resolve, merged order holds.
	e := newTestEngine(t, Options{Shards: 3, Durable: true})
	keys := keysOnDistinctShards(t, e, 3)
	for i, k := range keys {
		if _, _, err := e.Do([]Op{{Kind: OpPut, Key: k, Val: int64(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := e.Do([]Op{
		{Kind: OpPut, Key: keys[0], Val: 10},
		{Kind: OpPut, Key: keys[2], Val: 30},
	}); err != nil {
		t.Fatal(err)
	}
	img := e.Image()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEngine(t, Options{Shards: 3, Durable: true, RecoverFrom: img})
	rep := e2.Recovered()
	if rep.InDoubtResolved != 0 || rep.InDoubt != 0 {
		t.Fatalf("clean restart needed resolution: %+v", rep)
	}
	if rep.CoordCommits != 1 || len(rep.MergedOrder) == 0 {
		t.Fatalf("report %+v", rep)
	}
	if v, ok := e2.ReadKey(keys[0]); !ok || v != 10 {
		t.Fatalf("recovered %d,%v", v, ok)
	}
	if v, ok := e2.ReadKey(keys[1]); !ok || v != 2 {
		t.Fatalf("recovered %d,%v", v, ok)
	}
	finishEngine(t, e2)
}

func TestWALDirRestart(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, Options{Shards: 2, WALDir: dir})
	keys := keysOnDistinctShards(t, e, 2)
	if _, _, err := e.Do([]Op{
		{Kind: OpPut, Key: keys[0], Val: 5},
		{Kind: OpPut, Key: keys[1], Val: 6},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEngine(t, Options{Shards: 2, WALDir: dir})
	if e2.Recovered().CoordCommits != 1 {
		t.Fatalf("recovered %+v", e2.Recovered())
	}
	if v, ok := e2.ReadKey(keys[0]); !ok || v != 5 {
		t.Fatalf("recovered %d,%v", v, ok)
	}
	// Restarting with a different shard count against the same
	// directory must refuse.
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Shards: 3, Substrate: "tl2", Keys: 256, Seed: 1, WALDir: dir}); err == nil {
		t.Fatal("expected shard-count refusal from on-disk image")
	}
}

// TestUncertifiedWALRefused: the WAL is written through the certifying
// recorder, so an uncertified engine with a WAL would acknowledge
// commits that a restart cannot find. Booting that combination must be
// refused rather than lose the key.
func TestUncertifiedWALRefused(t *testing.T) {
	dir := t.TempDir()
	for _, opts := range []Options{{WALDir: dir}, {Durable: true}} {
		opts.DisableCert = true
		e, err := New(opts)
		if err != nil {
			continue
		}
		if _, _, err := e.Do([]Op{{Kind: OpPut, Key: 9, Val: 99}}); err != nil {
			t.Fatal(err)
		}
		img := e.Image()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e2 := newTestEngine(t, Options{WALDir: opts.WALDir, RecoverFrom: img})
		v, _ := e2.ReadKey(9)
		t.Fatalf("uncertified engine booted with %+v; acked put 9=99 reads %d after restart", opts, v)
	}
}

// TestRefusedBootKeepsImage: a boot refused after recovery — by the
// key-range check, the serving-epoch check, or a seeding failure after
// the old image was archived — leaves that image where the next boot
// finds it, so following the refusal's advice loses no acked write.
func TestRefusedBootKeepsImage(t *testing.T) {
	failSeed := chaos.NewPlan(1).WithRate(chaos.SiteTL2Commit, 1)
	for _, tc := range []struct {
		name                  string
		first, refused, retry Options
	}{
		{"keys", Options{Keys: 64}, Options{Keys: 8}, Options{Keys: 64}},
		{"epoch", Options{Keys: 64, Epoch: 5}, Options{Keys: 64, Epoch: 3}, Options{Keys: 64, Epoch: 6}},
		{"seed", Options{Keys: 64}, Options{Keys: 64, Plan: &failSeed}, Options{Keys: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			boot := func(o Options) (*Engine, error) {
				o.WALDir = dir
				return New(o)
			}
			e, err := boot(tc.first)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.Do([]Op{{Kind: OpPut, Key: 40, Val: 77}}); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := boot(tc.refused); err == nil {
				t.Fatal("boot not refused")
			} else {
				t.Logf("refused: %v", err)
			}
			e, err = boot(tc.retry)
			if err != nil {
				t.Fatal(err)
			}
			if n := e.Recovered().RecoveredTxns(); n == 0 {
				t.Fatal("retried boot recovered 0 transactions")
			}
			if v, _ := e.ReadKey(40); v != 77 {
				t.Fatalf("key 40 reads %d after the retried boot, want 77", v)
			}
			finishEngine(t, e)
		})
	}
}
