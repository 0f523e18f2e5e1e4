package bench_test

import (
	"strings"
	"testing"

	"pushpull/internal/bench"
)

func TestRunModelAllStrategies(t *testing.T) {
	for _, s := range append(bench.StrategyNames(), "irrevocable-mix") {
		res, err := bench.RunModel(bench.ModelParams{
			Strategy: s, Threads: 3, TxnsEach: 3, Keys: 4, ReadPct: 30, Seed: 11,
		})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !res.Serializable {
			t.Fatalf("%s: run not serializable", s)
		}
		if res.Commits+res.GaveUp != 9 {
			t.Fatalf("%s: commits=%d gaveup=%d", s, res.Commits, res.GaveUp)
		}
	}
}

func TestSweepModelShapes(t *testing.T) {
	table, results, err := bench.SweepModel(bench.ModelParams{Threads: 3, TxnsEach: 4, ReadPct: 20, Seed: 7}, []int{2, 16})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table, "optimistic") || !strings.Contains(table, "boosting") {
		t.Fatalf("table missing strategies:\n%s", table)
	}
	for _, r := range results {
		if !r.Serializable {
			t.Fatalf("unserializable cell: %+v", r)
		}
	}
	t.Logf("\n%s", table)
}

func TestRunSubstrateAll(t *testing.T) {
	for _, s := range bench.SubstrateNames() {
		res, err := bench.RunSubstrate(bench.SubstrateParams{
			Substrate: s, Threads: 4, OpsEach: 200, Keys: 8, ReadPct: 30, Seed: 5,
		})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.Commits < uint64(4*200) {
			t.Fatalf("%s: only %d commits, want >= %d", s, res.Commits, 4*200)
		}
	}
}

// TestContentionShape asserts the paper-adjacent qualitative claim the
// benchmarks exist to reproduce: under hot-key contention the
// optimistic word STM aborts much more than lock-based boosting, and
// under low contention everyone's abort ratio collapses.
func TestContentionShape(t *testing.T) {
	hotTL2, err := bench.RunSubstrate(bench.SubstrateParams{
		Substrate: "tl2", Threads: 8, OpsEach: 400, Keys: 2, ReadPct: 0, Seed: 3, Yield: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	coldTL2, err := bench.RunSubstrate(bench.SubstrateParams{
		Substrate: "tl2", Threads: 8, OpsEach: 400, Keys: 4096, ReadPct: 0, Seed: 3, Yield: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hotTL2.AbortRatio() <= coldTL2.AbortRatio() {
		t.Fatalf("TL2 abort ratio must grow with contention: hot=%.3f cold=%.3f",
			hotTL2.AbortRatio(), coldTL2.AbortRatio())
	}
	hotBoost, err := bench.RunSubstrate(bench.SubstrateParams{
		Substrate: "boost", Threads: 8, OpsEach: 400, Keys: 2, ReadPct: 0, Seed: 3, Yield: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hotBoost.AbortRatio() >= hotTL2.AbortRatio() {
		t.Fatalf("boosting must abort less than TL2 under hot keys: boost=%.3f tl2=%.3f",
			hotBoost.AbortRatio(), hotTL2.AbortRatio())
	}
}

func TestHTMCapacitySweep(t *testing.T) {
	table, err := bench.HTMCapacitySweep(8, []int{2, 8, 16}, 50, 9)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if len(lines) != 5 { // header + rule + 3 rows
		t.Fatalf("table:\n%s", table)
	}
	// Footprint 2 and 8 fit (capacity 8 counts distinct words); 16 must
	// fall back every time.
	if !strings.HasSuffix(strings.TrimSpace(lines[2]), "0.00") {
		t.Fatalf("footprint 2 should never fall back:\n%s", table)
	}
	if !strings.HasSuffix(strings.TrimSpace(lines[4]), "1.00") {
		t.Fatalf("footprint 16 should always fall back:\n%s", table)
	}
	t.Logf("\n%s", table)
}

func TestTableFormat(t *testing.T) {
	out := bench.Table(bench.Row{"a", "bb"}, []bench.Row{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(out, "a") || !strings.Contains(out, "333") {
		t.Fatalf("table:\n%s", out)
	}
}
