package pushpull_test

// Ablation experiments for the design choices DESIGN.md calls out:
//
//   - mover decision mode (static oracles vs dynamic single-history
//     checks vs the hybrid): conservatism and cost;
//   - the gray criteria (PULL (iii), UNPUSH (i)): rejected-step rates.

import (
	"fmt"
	"testing"

	"pushpull"
	"pushpull/internal/bench"
	"pushpull/internal/core"
	"pushpull/internal/sched"
	"pushpull/internal/serial"
	"pushpull/internal/spec"
	"pushpull/internal/strategy"
)

// runModeWorkload drives a mixed boosting/optimistic workload under the
// given machine options, returning total commits and aborts.
func runModeWorkload(b testing.TB, opts core.Options, seed int64) (commits, aborts int) {
	reg := bench.Registry()
	m := core.NewMachine(reg, opts)
	env := strategy.NewEnv()
	var ds []strategy.Driver
	for i := 0; i < 3; i++ {
		th := m.Spawn(fmt.Sprintf("w%d", i))
		var d strategy.Driver
		txn := pushpull.MustParseTxn(fmt.Sprintf(
			`tx w%d { v := ht.get(%d); ht.put(%d, v + 1); set.add(%d); }`, i, i%2, i%2, i))
		if i%2 == 0 {
			d = strategy.NewOptimistic(th.Name, th, []pushpull.Txn{txn}, strategy.Config{}, env)
		} else {
			d = strategy.NewBoosting(th.Name, th, []pushpull.Txn{txn}, strategy.Config{}, env)
		}
		ds = append(ds, d)
	}
	if err := sched.RunRandom(m, ds, seed, 100000); err != nil {
		b.Fatal(err)
	}
	if rep := serial.CheckCommitOrder(m); !rep.Serializable {
		b.Fatalf("unserializable under %v", opts.Mode)
	}
	for _, d := range ds {
		st := d.Stats()
		commits += st.Commits
		aborts += st.Aborts
	}
	return commits, aborts
}

// BenchmarkAblation_MoverMode compares the three left-mover deciders on
// the same driver workload. Static is cheapest but most conservative
// (oracle-unknown pairs reject, forcing retries); dynamic is most
// permissive but pays per-prefix replay; hybrid is the default.
func BenchmarkAblation_MoverMode(b *testing.B) {
	for _, mode := range []spec.MoverMode{spec.MoverStatic, spec.MoverHybrid, spec.MoverDynamic} {
		b.Run(mode.String(), func(b *testing.B) {
			totalAborts := 0
			for i := 0; i < b.N; i++ {
				_, aborts := runModeWorkload(b, core.Options{Mode: mode, EnforceGray: true}, int64(i+1))
				totalAborts += aborts
			}
			b.ReportMetric(float64(totalAborts)/float64(b.N), "aborts/run")
		})
	}
}

// TestAblationStaticIsMoreConservative: across seeds, static mode never
// aborts less than hybrid on the same workload (its unknown-oracle
// rejections are a superset of hybrid's dynamic rejections).
func TestAblationStaticIsMoreConservative(t *testing.T) {
	staticAborts, hybridAborts := 0, 0
	for seed := int64(1); seed <= 15; seed++ {
		_, a := runModeWorkload(t, core.Options{Mode: spec.MoverStatic, EnforceGray: true}, seed)
		staticAborts += a
		_, a = runModeWorkload(t, core.Options{Mode: spec.MoverHybrid, EnforceGray: true}, seed)
		hybridAborts += a
	}
	if staticAborts < hybridAborts {
		t.Fatalf("static aborts (%d) < hybrid aborts (%d): static should be the conservative mode",
			staticAborts, hybridAborts)
	}
	t.Logf("aborts across 15 seeds: static=%d hybrid=%d", staticAborts, hybridAborts)
}

// BenchmarkAblation_GrayCriteria measures the cost of enforcing the
// paper's gray (not-strictly-necessary) criteria.
func BenchmarkAblation_GrayCriteria(b *testing.B) {
	for _, gray := range []bool{true, false} {
		b.Run(fmt.Sprintf("gray=%v", gray), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runModeWorkload(b, core.Options{Mode: spec.MoverHybrid, EnforceGray: gray}, int64(i+1))
			}
		})
	}
}
