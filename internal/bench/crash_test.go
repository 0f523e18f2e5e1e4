package bench

import (
	"testing"

	"pushpull/internal/recovery"
)

// TestCrashSmoke is the tier-1 crash-recovery gate: a small seed sweep
// over every target, each run crashing the WAL mid-flight and
// certifying the recovered prefix. The full 50-seed campaign runs via
// `make crash` / `pushpull-check crash`.
func TestCrashSmoke(t *testing.T) {
	p := ChaosParams{Targets: CrashTargets(), Seeds: 4, Threads: 4, OpsEach: 12}
	report, outcomes, err := Sweep(p, RunCrashOne)
	if err != nil {
		t.Fatalf("%v\n%s", err, report)
	}
	crashed, recovered := 0, 0
	for _, o := range outcomes {
		if o.Crashed {
			crashed++
		}
		recovered += o.Recovered
	}
	if crashed == 0 {
		t.Fatalf("no run crashed — the sweep exercised nothing:\n%s", report)
	}
	if recovered == 0 {
		t.Fatalf("no transaction recovered across the sweep:\n%s", report)
	}
	t.Logf("\n%s", report)
}

// TestCrashPlanDeterminism: the same (target, seed) yields the same
// plan string — the printed plan really is the reproduction recipe.
func TestCrashPlanDeterminism(t *testing.T) {
	p := ChaosParams{}
	for _, target := range CrashTargets() {
		a := CrashPlanFor(target, 7, p).String()
		b := CrashPlanFor(target, 7, p).String()
		if a != b {
			t.Fatalf("%s: plan not deterministic: %q vs %q", target, a, b)
		}
		if CrashPlanFor(target, 8, p).String() == a {
			t.Fatalf("%s: different seeds produced identical plans", target)
		}
	}
}

// TestCrashRunReproducible: rerunning the cooperative-model target at
// one seed reproduces the same durable image byte for byte —
// determinism end to end through workload, scheduling, injection, and
// crash. (The goroutine substrates are deterministic per site visit
// but not per interleaving, so only the model admits this check.)
func TestCrashRunReproducible(t *testing.T) {
	p := ChaosParams{Threads: 2, OpsEach: 8}
	a := RunCrashOne("model", 5, p)
	b := RunCrashOne("model", 5, p)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("model: %v / %v", a.Err, b.Err)
	}
	if a.Crashed != b.Crashed || a.Recovered != b.Recovered || a.Discarded != b.Discarded {
		t.Fatalf("model: outcomes diverge: %+v vs %+v", a, b)
	}
	// Op IDs draw from a process-global counter, so images differ in
	// IDs across runs; everything else must match transaction for
	// transaction.
	ra := recovery.Recover(a.Segments)
	rb := recovery.Recover(b.Segments)
	if len(ra.State.Txns) != len(rb.State.Txns) {
		t.Fatalf("model: recovered %d vs %d txns", len(ra.State.Txns), len(rb.State.Txns))
	}
	for i := range ra.State.Txns {
		ta, tb := ra.State.Txns[i], rb.State.Txns[i]
		if ta.Name != tb.Name || ta.Stamp != tb.Stamp || len(ta.Ops) != len(tb.Ops) {
			t.Fatalf("model: txn %d diverges: %+v vs %+v", i, ta, tb)
		}
		for j := range ta.Ops {
			oa, ob := ta.Ops[j], tb.Ops[j]
			same := oa.Obj == ob.Obj && oa.Method == ob.Method && oa.Ret == ob.Ret &&
				len(oa.Args) == len(ob.Args)
			for k := 0; same && k < len(oa.Args); k++ {
				same = oa.Args[k] == ob.Args[k]
			}
			if !same {
				t.Fatalf("model: txn %d op %d diverges: %v vs %v", i, j, oa, ob)
			}
		}
	}
}
