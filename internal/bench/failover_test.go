package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestFailoverSmoke is the tier-1 failover sweep: a handful of seeds
// through the full kill → certify → promote → restart contract. The
// fault model must fire: across the seeds some poll is dropped, some
// partition window installed and some ack withheld.
func TestFailoverSmoke(t *testing.T) {
	report, outs, err := Sweep(ChaosParams{
		Targets: []string{"failover"}, Seeds: 6,
	}, RunChaosOne)
	t.Log("\n" + report)
	if err != nil {
		t.Fatal(err)
	}
	var crashed, partitions int
	var dropped, withheld uint64
	for _, o := range outs {
		if o.CrashFired {
			crashed++
		}
		partitions += o.Partitions
		dropped += o.DroppedPolls
		withheld += o.AckWithheld
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
	if dropped == 0 || partitions == 0 || withheld == 0 {
		t.Fatalf("fault model idle across %d seeds: %d dropped polls, %d partition windows, %d withheld acks",
			len(outs), dropped, partitions, withheld)
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
