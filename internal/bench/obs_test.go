package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"pushpull/internal/obs"
)

// TestObsSmoke is the `make obs-smoke` gate: one instrumented bench
// run plus one certified chaos run with the suite attached must leave
// zero leaked spans, a balanced timeline, and a non-empty Prometheus
// exposition covering both sites.
func TestObsSmoke(t *testing.T) {
	suite := obs.New()

	res, err := RunSubstrate(SubstrateParams{
		Substrate: "tl2", Threads: 2, OpsEach: 20, Keys: 8, ReadPct: 30,
		Seed: 1, Obs: suite,
	})
	if err != nil {
		t.Fatalf("instrumented bench run: %v", err)
	}
	if res.Commits == 0 {
		t.Fatal("bench run committed nothing")
	}

	p := ChaosParams{Threads: 2, OpsEach: 10, Keys: 8, Rate: 0.1, Obs: suite}
	o := RunChaosOne("boost", 1, p)
	if o.Err != nil {
		t.Fatalf("chaos run: %v", o.Err)
	}

	if err := suite.LeakCheck(); err != nil {
		t.Fatalf("leaked spans: %v", err)
	}
	if suite.Spans.Completed() == 0 {
		t.Fatal("no spans recorded")
	}

	var prom strings.Builder
	if err := suite.Metrics.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`pushpull_commits_total{site="tl2"}`,
		`pushpull_commits_total{site="boost"}`,
		"pushpull_rule_transitions_total",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, prom.String())
		}
	}

	var tl bytes.Buffer
	if err := suite.Spans.WriteChromeTrace(&tl); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tl.Bytes(), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	b, e := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "B":
			b++
		case "E":
			e++
		}
	}
	if b == 0 || b != e {
		t.Fatalf("timeline B=%d E=%d, want balanced and non-empty", b, e)
	}
}

// TestObsSnapshotConsistency table-tests the suite across all five
// goroutine substrates (plus hybrid and the cooperative model) under
// concurrent snapshot readers — the -race gate for the striped
// counters: writers are the substrate goroutines behind the recorder,
// the reader snapshots mid-run, and per-site totals must come out
// exact at quiescence.
func TestObsSnapshotConsistency(t *testing.T) {
	for _, target := range ChaosTargets() {
		target := target
		t.Run(target, func(t *testing.T) {
			t.Parallel()
			suite := obs.New()
			p := ChaosParams{Threads: 2, OpsEach: 8, Keys: 8, Rate: 0.1, Obs: suite}

			done := make(chan struct{})
			var rd sync.WaitGroup
			rd.Add(1)
			go func() { // concurrent snapshot reader during the run
				defer rd.Done()
				var last uint64
				for {
					s := suite.Metrics.Snapshot()
					total := s.Commits + s.Aborts
					if total < last {
						t.Error("commits+aborts went backwards across snapshots")
						return
					}
					last = total
					select {
					case <-done:
						return
					default:
					}
				}
			}()
			o := RunChaosOne(target, 1, p)
			close(done)
			rd.Wait()
			if o.Err != nil {
				t.Fatalf("chaos run: %v", o.Err)
			}
			if err := suite.LeakCheck(); err != nil {
				t.Fatalf("leaked spans: %v", err)
			}
			s := suite.Metrics.Snapshot()
			if target == "shard" || target == "shardseq" || target == "failover" {
				// These targets run through the sharded engine, which
				// records one site per shard ("tl2/s0".."tl2/s3"); each
				// must have fired and balance.
				found := 0
				for name, site := range s.Sites {
					if !strings.HasPrefix(name, "tl2/s") {
						continue
					}
					found++
					if site.Begins == 0 {
						t.Fatalf("no begins recorded for shard site %q", name)
					}
					if site.Begins != site.Commits+site.Aborts {
						t.Fatalf("site %q: begins=%d != commits=%d + aborts=%d",
							name, site.Begins, site.Commits, site.Aborts)
					}
				}
				if found == 0 {
					t.Fatalf("no per-shard sites recorded: %v", s.Sites)
				}
			} else {
				site := s.Sites[target]
				if site.Begins == 0 {
					t.Fatalf("no begins recorded for site %q: %v", target, s.Sites)
				}
				if site.Begins != site.Commits+site.Aborts {
					t.Fatalf("site %q: begins=%d != commits=%d + aborts=%d",
						target, site.Begins, site.Commits, site.Aborts)
				}
			}
			if s.LiveTxns != 0 {
				t.Fatalf("live txns = %d at quiescence", s.LiveTxns)
			}
		})
	}
}

// TestCampaignJSON pins the -json campaign summaries: outcomes round-
// trip through the JSON encoders with errors flattened to strings.
func TestCampaignJSON(t *testing.T) {
	p := ChaosParams{Targets: []string{"tl2"}, Seeds: 2, Threads: 2, OpsEach: 8, Keys: 8, Rate: 0.1}
	_, outcomes, err := Sweep(p, RunChaosOne)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(outcomes, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var rows []Outcome
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Target != "tl2" || rows[0].Commits == 0 {
		t.Fatalf("chaos json rows: %+v", rows)
	}

	_, crashes, err := Sweep(ChaosParams{Targets: []string{"tl2"}, Seeds: 1, Threads: 2, OpsEach: 8, Keys: 8, Rate: 0.1}, RunCrashOne)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := json.MarshalIndent(crashes, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var crows []Outcome
	if err := json.Unmarshal(cb, &crows); err != nil {
		t.Fatal(err)
	}
	if len(crows) != 1 || crows[0].Policy == "" || crows[0].DurableBytes == 0 {
		t.Fatalf("crash json rows: %+v", crows)
	}
}
