package bench

import (
	"strings"
	"testing"
)

// TestChaosSmoke is the CI chaos tier: a small seed sweep over every
// target with faults enabled, each run certified. The full ≥50-seed
// campaign runs through `pushpull-check chaos`.
func TestChaosSmoke(t *testing.T) {
	p := ChaosParams{Seeds: 3, BaseSeed: 1, Threads: 3, OpsEach: 12, Keys: 8, Rate: 0.1}
	report, outcomes, err := Sweep(p, RunChaosOne)
	if err != nil {
		t.Fatalf("%v\n%s", err, report)
	}
	injected := uint64(0)
	for _, o := range outcomes {
		if o.Err != nil {
			t.Errorf("%s seed %d: %v (replay: %s)", o.Target, o.Seed, o.Err, o.Plan)
		}
		injected += o.Faults.TotalInjected()
	}
	if injected == 0 {
		t.Fatal("smoke campaign injected no faults; raise the rate")
	}
	for _, target := range ChaosTargets() {
		if !strings.Contains(report, target) {
			t.Fatalf("report missing target %s:\n%s", target, report)
		}
	}
	t.Logf("\n%s", report)
}

// TestChaosOutcomeReproducible: rerunning one target from its printed
// plan seed reproduces the same plan (the injection decision sequence).
// Goroutine targets revisit sites a timing-dependent number of times
// (retries), so their fault tallies may differ run to run; the
// cooperative model target is fully deterministic and must reproduce
// its exact fault and commit counts.
func TestChaosOutcomeReproducible(t *testing.T) {
	p := ChaosParams{Threads: 2, OpsEach: 20, Keys: 8, Rate: 0.1}
	for _, target := range []string{"tl2", "hybrid", "model"} {
		a := RunChaosOne(target, 5, p)
		b := RunChaosOne(target, 5, p)
		if a.Err != nil || b.Err != nil {
			t.Fatalf("%s: %v / %v", target, a.Err, b.Err)
		}
		if a.Plan != b.Plan {
			t.Fatalf("%s: plans diverged: %s vs %s", target, a.Plan, b.Plan)
		}
	}
	a := RunChaosOne("model", 5, p)
	b := RunChaosOne("model", 5, p)
	if a.Faults.TotalInjected() != b.Faults.TotalInjected() || a.Commits != b.Commits ||
		a.Kills != b.Kills || a.Stalls != b.Stalls {
		t.Fatalf("model runs diverged: %+v vs %+v", a, b)
	}
}

// TestChaosDepRollbackShadowOrder pins the campaign plan (the full
// campaign's exact parameters, seed 17) that exposed a
// rollback-ordering race in the dependent-transactions substrate:
// marking a transaction aborted before rewinding its shadow session let
// a concurrent writer treat its visible reads as dead and eagerly PUSH
// a shadow write over a still-uncommitted shadow read — a false PUSH
// criterion (ii) violation. Rollback must publish the aborted state
// only after the shadow rewind.
func TestChaosDepRollbackShadowOrder(t *testing.T) {
	p := ChaosParams{Threads: 4, OpsEach: 40, Keys: 16, Rate: 0.08}
	o := RunChaosOne("dep", 17, p)
	if o.Err != nil {
		t.Errorf("seed 17: %v (replay: %s)", o.Err, o.Plan)
	}
}

// TestChaosHybridDegrades: the hybrid target's capacity injections push
// the runtime into degraded mode within the campaign workload, and the
// degraded commits stay certified (RunChaosOne errors otherwise).
func TestChaosHybridDegrades(t *testing.T) {
	p := ChaosParams{Threads: 4, OpsEach: 40, Keys: 8, Rate: 0.2}
	degraded := uint64(0)
	for seed := int64(1); seed <= 5; seed++ {
		o := RunChaosOne("hybrid", seed, p)
		if o.Err != nil {
			t.Fatalf("seed %d: %v (replay: %s)", seed, o.Err, o.Plan)
		}
		degraded += o.Degraded
	}
	if degraded == 0 {
		t.Fatal("no hybrid run degraded under capacity injection")
	}
}
