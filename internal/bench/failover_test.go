package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestFailoverSmoke is the tier-1 failover sweep: a handful of seeds
// through the full kill → certify → promote → restart contract.
func TestFailoverSmoke(t *testing.T) {
	report, outs, err := Sweep(ChaosParams{
		Targets: []string{"failover"}, Seeds: 6,
	}, RunChaosOne)
	t.Log("\n" + report)
	if err != nil {
		t.Fatal(err)
	}
	crashed := 0
	for _, o := range outs {
		if o.CrashFired {
			crashed++
		}
		if o.InDoubt != 0 {
			t.Fatalf("seed %d: %d in doubt", o.Seed, o.InDoubt)
		}
		if o.PromotedTxns == 0 {
			t.Fatalf("seed %d: promotion recovered nothing", o.Seed)
		}
	}
	if crashed == 0 {
		t.Fatal("no seed killed the primary mid-run; the sweep exercised nothing")
	}
}

// TestFailoverJSON keeps the machine-readable sweep schema honest.
func TestFailoverJSON(t *testing.T) {
	o := RunChaosOne("failover", 3, ChaosParams{Seeds: 1})
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	b, err := json.MarshalIndent([]Outcome{o}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"plan"`, `"crash_fired"`, `"acked_keys"`, `"promoted_txns"`} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("JSON missing %s:\n%s", want, b)
		}
	}
}
