package server

import (
	"strings"
	"testing"
	"time"

	"pushpull/internal/kvapi"
	"pushpull/internal/wal"
)

// TestServerSessionDedupSurvivesRestart pins exactly-once on the
// 1-shard server: a settled sessioned request is answered
// from the dedup table after a full WAL-image restart — the TSession
// record rides the same durability barrier as its commit — and the
// table carries across a SECOND restart because the boot re-logs it as
// checkpoint records on the fresh timeline.
func TestServerSessionDedupSurvivesRestart(t *testing.T) {
	s1, err := New(Options{
		Substrate: "tl2", Keys: 32, Seed: 42,
		Durable: true, SyncPolicy: wal.SyncOnCommit,
	})
	if err != nil {
		t.Fatal(err)
	}
	ops := []kvapi.Op{
		{Kind: kvapi.OpPut, Key: 3, Val: 33},
		{Kind: kvapi.OpGet, Key: 3},
	}
	resp := s1.DoTxnSession(ops, 5, 1)
	if resp.Status != kvapi.StatusOK || resp.DedupHit {
		t.Fatalf("first execution: %+v", resp)
	}
	if resp.Results[1].Val != 33 || !resp.Results[1].Found {
		t.Fatalf("first execution results: %+v", resp.Results)
	}

	// An in-flight retry against the same incarnation dedups without
	// re-executing.
	again := s1.DoTxnSession(ops, 5, 1)
	if again.Status != kvapi.StatusOK || !again.DedupHit {
		t.Fatalf("live retry: %+v", again)
	}
	if again.Results[1].Val != 33 {
		t.Fatalf("live retry replayed wrong results: %+v", again.Results)
	}
	if s1.DedupHits() != 1 {
		t.Fatalf("dedup hits = %d, want 1", s1.DedupHits())
	}

	restart := func(from *Server) *Server {
		t.Helper()
		img := from.ShardImage()
		from.Stop()
		s, err := New(Options{
			Substrate: "tl2", Keys: 32, Seed: 42,
			Durable: true, SyncPolicy: wal.SyncOnCommit,
			RecoverFrom: img,
		})
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		return s
	}

	// The table keeps each session's LATEST settled request, so every
	// round retries the newest sequence number (a dedup hit), proves a
	// lower one is stale, then settles a fresh one for the next round.
	s := restart(s1)
	latest := uint64(1)
	for round := 1; round <= 2; round++ {
		commits0 := s.Stats().Commits
		resp := s.DoTxnSession(ops, 5, latest)
		if resp.Status != kvapi.StatusOK || !resp.DedupHit {
			t.Fatalf("restart %d retry of seq %d: %+v", round, latest, resp)
		}
		if got := s.Stats().Commits; got != commits0 {
			t.Fatalf("restart %d dedup re-executed: commits %d -> %d", round, commits0, got)
		}
		// A stale sequence number is a protocol error, not a replay.
		if stale := s.DoTxnSession(ops, 5, latest-1); stale.Status != kvapi.StatusError {
			t.Fatalf("restart %d stale seq answered %+v", round, stale)
		}
		// The session keeps working: the next sequence number executes.
		latest++
		next := s.DoTxnSession([]kvapi.Op{{Kind: kvapi.OpPut, Key: 4, Val: int64(40 + round)}}, 5, latest)
		if next.Status != kvapi.StatusOK || next.DedupHit {
			t.Fatalf("restart %d fresh seq: %+v", round, next)
		}
		if round == 2 {
			s.Stop()
			break
		}
		// Second hop: surviving a restart OF the restart only works if
		// the boot checkpointed the table onto the fresh timeline.
		s = restart(s)
	}
}

// TestLeaseGatesOneShardServer: an unsharded, unreplicated server with
// a lease configured answers through the same ack gate as every other
// shape. Once the granted lease has expired a commit is not
// acknowledged — the client hears "commit state unknown" — and after
// the lease is granted again the sessioned retry is a dedup hit: the
// withheld commit happened exactly once.
func TestLeaseGatesOneShardServer(t *testing.T) {
	now := time.Unix(1000, 0)
	s, err := New(Options{
		Substrate: "tl2", Keys: 32, Seed: 42, Shards: 1,
		Durable: true, SyncPolicy: wal.SyncOnCommit,
		LeaseTTL: 50 * time.Millisecond, Clock: func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if err := s.GrantLease(1); err != nil {
		t.Fatal(err)
	}
	if resp := s.DoTxnSession([]kvapi.Op{{Kind: kvapi.OpPut, Key: 1, Val: 10}}, 9, 1); resp.Status != kvapi.StatusOK {
		t.Fatalf("commit under a valid lease: %+v", resp)
	}

	now = now.Add(time.Second) // renewals stopped: the lease is long gone
	ops := []kvapi.Op{{Kind: kvapi.OpPut, Key: 2, Val: 20}, {Kind: kvapi.OpGet, Key: 2}}
	resp := s.DoTxnSession(ops, 9, 2)
	if resp.Status == kvapi.StatusOK || !strings.Contains(resp.Msg, "commit state unknown") {
		t.Fatalf("commit under an expired lease was answered %+v, want \"commit state unknown\"", resp)
	}
	// The unsessioned path is gated too.
	if resp := s.DoTxn([]kvapi.Op{{Kind: kvapi.OpPut, Key: 3, Val: 30}}); resp.Status == kvapi.StatusOK {
		t.Fatalf("unsessioned commit acked under an expired lease: %+v", resp)
	}

	if err := s.GrantLease(1); err != nil { // the held epoch renews
		t.Fatal(err)
	}
	commits := s.Stats().Commits
	resp = s.DoTxnSession(ops, 9, 2)
	if resp.Status != kvapi.StatusOK || !resp.DedupHit || resp.Results[1].Val != 20 {
		t.Fatalf("retry after re-grant: %+v, want a dedup hit answering 20", resp)
	}
	if got := s.Stats().Commits; got != commits {
		t.Fatalf("retry re-executed: commits %d -> %d", commits, got)
	}
}
