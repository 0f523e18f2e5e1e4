package server

import (
	"testing"

	"pushpull/internal/backend"
	"pushpull/internal/chaos"
	"pushpull/internal/kvapi"
	"pushpull/internal/wal"
)

// TestServerCrashRestart (satellite): kill the server's simulated
// process at the n-th WAL append mid-campaign, restart from the
// surviving image, and assert (a) recovery re-certifies, (b) every
// transaction acknowledged before the crash reads back after restart,
// (c) the restarted server serves new traffic and still certifies.
// Table over every substrate.
func TestServerCrashRestart(t *testing.T) {
	for _, sub := range backend.Substrates() {
		sub := sub
		t.Run(sub, func(t *testing.T) {
			plan := chaos.NewPlan(42).WithCrash(25, chaos.CrashClean)
			s1, err := New(Options{
				Substrate: sub, Keys: 64, Seed: 42,
				Durable: true, SyncPolicy: wal.SyncEveryRecord,
				Plan: &plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			addr, err := s1.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			c, err := kvapi.Dial(addr.String())
			if err != nil {
				t.Fatal(err)
			}

			// Sequential distinct-key puts until the crash fires. A put
			// acknowledged while the log is still alive is durable
			// (per-record sync, single closed-loop client), so it must
			// survive restart.
			durable := map[uint64]int64{}
			for i := uint64(1); i <= 60; i++ {
				wasAlive := !s1.WALCrashed()
				resp, err := c.Do([]kvapi.Op{{Kind: kvapi.OpPut, Key: i, Val: int64(1000 + i)}})
				if err != nil {
					t.Fatal(err)
				}
				if resp.Status == kvapi.StatusOK && wasAlive && !s1.WALCrashed() {
					durable[i] = int64(1000 + i)
				}
				if s1.WALCrashed() {
					break
				}
			}
			if !s1.WALCrashed() {
				t.Fatal("scheduled crash never fired")
			}
			if len(durable) == 0 {
				t.Fatal("crash fired before any transaction became durable; lower the crash point")
			}
			img := s1.ShardImage()
			c.Close()
			s1.Stop()
			if err := s1.LeakCheck(); err != nil {
				t.Fatalf("pre-restart leaks: %v", err)
			}

			// Restart from the surviving image. New refuses to serve
			// unless RecoverAndCertify passes, so reaching this point IS
			// the re-certification assertion.
			s2, err := New(Options{
				Substrate: sub, Keys: 64, Seed: 42,
				Durable: true, SyncPolicy: wal.SyncEveryRecord,
				RecoverFrom: img,
			})
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			rep := s2.ShardRecovered()
			if rep.RecoveredTxns() == 0 {
				t.Fatal("restart recovered no transactions")
			}
			if s2.Stats().SeededTxns == 0 {
				t.Fatal("recovered state was not re-seeded")
			}
			// The recovered fold must cover every acknowledged-durable key.
			fold := backend.FoldKV(rep.Shards[0].Certified)
			for k, v := range durable {
				if got, ok := fold[k]; !ok || got != v {
					t.Fatalf("recovered image: key %d = (%d, %v), want (%d, true)", k, got, ok, v)
				}
			}

			addr2, err := s2.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			c2, err := kvapi.Dial(addr2.String())
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			// Committed keys survive, end to end.
			for k, v := range durable {
				resp, err := c2.Do([]kvapi.Op{{Kind: kvapi.OpGet, Key: k}})
				if err != nil || resp.Status != kvapi.StatusOK {
					t.Fatalf("get %d after restart: %v %v", k, resp, err)
				}
				if !resp.Results[0].Found || resp.Results[0].Val != v {
					t.Fatalf("key %d after restart = %+v, want %d", k, resp.Results[0], v)
				}
			}
			// And the restarted server accepts new committed work.
			if resp, err := c2.Do([]kvapi.Op{{Kind: kvapi.OpPut, Key: 63, Val: -5}}); err != nil || resp.Status != kvapi.StatusOK {
				t.Fatalf("post-restart put: %v %v", resp, err)
			}
			c2.Close()
			s2.Stop()
			if err := s2.LeakCheck(); err != nil {
				t.Fatal(err)
			}
			if err := s2.FinalCheck(); err != nil {
				t.Fatalf("post-restart certification: %v", err)
			}
		})
	}
}

// TestServerCrashRestartOnDisk runs the tl2 leg against real segment
// files: crash, restart pointed at the same directory, and check the
// old epoch is archived while the new log re-checkpoints the state.
func TestServerCrashRestartOnDisk(t *testing.T) {
	dir := t.TempDir()
	plan := chaos.NewPlan(7).WithCrash(20, chaos.CrashClean)
	s1, err := New(Options{
		Substrate: "tl2", Keys: 64, Seed: 7,
		WALDir: dir, SyncPolicy: wal.SyncEveryRecord,
		Plan: &plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := kvapi.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	durable := map[uint64]int64{}
	for i := uint64(1); i <= 40 && !s1.WALCrashed(); i++ {
		resp, err := c.Do([]kvapi.Op{{Kind: kvapi.OpPut, Key: i, Val: int64(i * 10)}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status == kvapi.StatusOK && !s1.WALCrashed() {
			durable[i] = int64(i * 10)
		}
	}
	if !s1.WALCrashed() {
		t.Fatal("scheduled crash never fired")
	}
	c.Close()
	s1.Stop()

	// Restart from the directory (no RecoverFrom): the dead process's
	// segments are read off disk, certified, archived, re-seeded.
	s2, err := New(Options{
		Substrate: "tl2", Keys: 64, Seed: 7,
		WALDir: dir, SyncPolicy: wal.SyncEveryRecord,
	})
	if err != nil {
		t.Fatalf("restart from dir: %v", err)
	}
	if s2.ShardRecovered().RecoveredTxns() == 0 {
		t.Fatal("nothing recovered from disk")
	}
	for k, v := range durable {
		if got, _ := s2.Backend().ReadKey(k); got != v {
			t.Fatalf("key %d = %d after disk restart, want %d", k, got, v)
		}
	}
	s2.Stop()
	if err := s2.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	if err := s2.FinalCheck(); err != nil {
		t.Fatal(err)
	}

	// A third boot recovers the re-checkpointed epoch (written by s2's
	// fresh log) — the archive kept namespaces from colliding.
	s3, err := New(Options{Substrate: "tl2", Keys: 64, Seed: 7, WALDir: dir})
	if err != nil {
		t.Fatalf("third boot: %v", err)
	}
	for k, v := range durable {
		if got, _ := s3.Backend().ReadKey(k); got != v {
			t.Fatalf("key %d = %d after third boot, want %d", k, got, v)
		}
	}
	s3.Stop()
	if err := s3.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}
