package server

import (
	"os"
	"testing"
	"time"

	"pushpull/internal/kvapi"
	"pushpull/internal/wal"
)

// TestServeSmoke is the `make serve-smoke` target: boot a durable
// server on tl2 and hybrid, run a short mixed one-shot + interactive
// load campaign against it over the wire, and demand the full
// certificate — zero transport errors, zero leaked sessions/spans/
// locks, commit-order serializability, substrate conservation, and
// measured group-commit amortization.
func TestServeSmoke(t *testing.T) {
	for _, sub := range []string{"tl2", "hybrid"} {
		sub := sub
		t.Run(sub, func(t *testing.T) {
			s, err := New(Options{
				Substrate: sub, Keys: 32, Seed: 11,
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
					Keys:     32, ReadPct: 50, OpsPerTxn: 3,
					Skew: 1.2, Interactive: leg.interactive, Seed: 11,
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
				t.Logf("%s/%s: %s", sub, leg.name, res)
			}

			barriers, syncs := s.GroupStats()
			if syncs == 0 || barriers < syncs {
				t.Fatalf("group commit stats look wrong: %d barriers, %d syncs", barriers, syncs)
			}
			t.Logf("%s: group commit %d barriers / %d syncs (%.1fx amortization)",
				sub, barriers, syncs, float64(barriers)/float64(syncs))

			s.Stop()
			if err := s.LeakCheck(); err != nil {
				t.Fatalf("leak check: %v", err)
			}
			if err := s.FinalCheck(); err != nil {
				t.Fatalf("final certification: %v", err)
			}
		})
	}
}

// TestServeCampaign is the long-form acceptance run (set
// PUSHPULL_SERVE_CAMPAIGN=1): a 30-second, 8-client certified campaign
// on tl2 and hybrid with a crash-restart leg in the middle — the
// restarted server recovers to a certified prefix before taking the
// second half of the traffic.
func TestServeCampaign(t *testing.T) {
	if os.Getenv("PUSHPULL_SERVE_CAMPAIGN") == "" {
		t.Skip("set PUSHPULL_SERVE_CAMPAIGN=1 to run the 30s campaign")
	}
	for _, sub := range []string{"tl2", "hybrid"} {
		sub := sub
		t.Run(sub, func(t *testing.T) {
			run := func(s *Server, d time.Duration, interactive bool) kvapi.LoadResult {
				addr, err := s.Start("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				res, err := kvapi.RunLoad(kvapi.LoadParams{
					Addr: addr.String(), Clients: 8, Duration: d,
					Keys: 64, ReadPct: 60, OpsPerTxn: 4, Skew: 1.1,
					Interactive: interactive, Seed: 23,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Errors != 0 {
					t.Fatalf("%d StatusError outcomes", res.Errors)
				}
				return res
			}

			// First half, then simulated process death mid-campaign.
			s1, err := New(Options{Substrate: sub, Keys: 64, Seed: 23,
				Durable: true, SyncPolicy: wal.SyncOnCommit})
			if err != nil {
				t.Fatal(err)
			}
			res1 := run(s1, 15*time.Second, false)
			t.Logf("%s first half:  %s", sub, res1)
			img := s1.ShardImage()
			s1.Stop()
			if err := s1.LeakCheck(); err != nil {
				t.Fatal(err)
			}

			// Restart: certified recovery before traffic resumes.
			s2, err := New(Options{Substrate: sub, Keys: 64, Seed: 23,
				Durable: true, SyncPolicy: wal.SyncOnCommit, RecoverFrom: img})
			if err != nil {
				t.Fatalf("mid-campaign restart: %v", err)
			}
			if !img.Empty() && s2.ShardRecovered().RecoveredTxns() == 0 {
				t.Fatal("restart recovered nothing")
			}
			res2 := run(s2, 15*time.Second, true)
			t.Logf("%s second half: %s", sub, res2)
			s2.Stop()
			if err := s2.LeakCheck(); err != nil {
				t.Fatal(err)
			}
			if err := s2.FinalCheck(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
