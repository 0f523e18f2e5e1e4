package pushpull_test

// One benchmark per paper artifact / experiment (see DESIGN.md's
// per-experiment index and EXPERIMENTS.md). The E1–E9 benches measure
// the model machinery on the figure workloads; the E10 family measures
// the real substrates' contention shapes.

import (
	"fmt"
	"testing"

	"pushpull"
	"pushpull/internal/adt"
	"pushpull/internal/bench"
	"pushpull/internal/spec"
	"pushpull/internal/stm/boost"
	"pushpull/internal/stm/htmsim"
	"pushpull/internal/stm/hybrid"
)

// BenchmarkE1_Fig2_Boosting runs the Figure 2 boosted-put decomposition
// (PULL; APP; PUSH; CMT) once per iteration on the machine.
func BenchmarkE1_Fig2_Boosting(b *testing.B) {
	reg := pushpull.StandardRegistry()
	m := pushpull.NewMachine(reg, pushpull.Options{Mode: pushpull.MoverHybrid, EnforceGray: true})
	th := m.Spawn("booster")
	txn := pushpull.MustParseTxn(`tx put { ht.put(1, 2); }`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Begin(th, txn, nil); err != nil {
			b.Fatal(err)
		}
		// The implicit boosted PULL of the committed view (Figure 2).
		local := m.LocalLog(th)
		for gi, e := range m.GlobalEntries() {
			if e.Committed && !local.Contains(e.Op) {
				if err := m.Pull(th, gi); err != nil {
					b.Fatal(err)
				}
			}
		}
		steps := m.Steps(th)
		if _, err := m.App(th, steps[0]); err != nil {
			b.Fatal(err)
		}
		if err := m.Push(th, len(th.Local)-1); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Commit(th); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			if err := m.Compact(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE2_Fig7_Hybrid runs the Section 7 mixed transaction on the
// real hybrid substrate (boosted skiplist+hashtable, HTM words).
func BenchmarkE2_Fig7_Hybrid(b *testing.B) {
	brt := boost.NewRuntime()
	h := htmsim.New(8)
	rt := hybrid.New(brt, h)
	sl := boost.NewSet(brt, "skiplist", 1)
	ht := boost.NewMap(brt, "hashT", 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		foo := int64(i % 4096)
		err := rt.Atomic("s7", func(tx *hybrid.Tx) error {
			if _, err := sl.Add(tx.Boosted(), foo); err != nil {
				return err
			}
			tx.HTMSection(func(htx *htmsim.Tx) error {
				v, err := htx.Read(0)
				if err != nil {
					return err
				}
				return htx.Write(0, v+1)
			})
			_, _, err := ht.Put(tx.Boosted(), foo, foo)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_Opacity measures the opacity checkers over a recorded
// mixed trace.
func BenchmarkE3_Opacity(b *testing.B) {
	reg := pushpull.StandardRegistry()
	m := pushpull.NewMachine(reg, pushpull.DefaultOptions())
	env := pushpull.NewEnv()
	t1 := m.Spawn("d1")
	t2 := m.Spawn("d2")
	txns := []pushpull.Txn{pushpull.MustParseTxn(`tx a { set.add(1); v := set.contains(2); }`)}
	ds := []pushpull.Driver{
		pushpull.NewDependent("d1", t1, txns, pushpull.DriverConfig{}, env),
		pushpull.NewDependent("d2", t2, txns, pushpull.DriverConfig{}, env),
	}
	if err := pushpull.RunRandom(m, ds, 1, 50000); err != nil {
		b.Fatal(err)
	}
	events := m.Events()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pushpull.CheckOpacity(events)
		_ = pushpull.CheckOpacityRelaxed(reg, pushpull.MoverHybrid, events)
	}
}

// benchStrategy drives one full certified model workload per iteration.
func benchStrategy(b *testing.B, name string, keys int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunModel(bench.ModelParams{
			Strategy: name, Threads: 3, TxnsEach: 3, Keys: keys, ReadPct: 20,
			Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Serializable {
			b.Fatalf("iteration %d not serializable", i)
		}
	}
}

// BenchmarkE4_Optimistic: §6.2 optimistic pattern, certified per run.
func BenchmarkE4_Optimistic(b *testing.B) { benchStrategy(b, "optimistic", 8) }

// BenchmarkE4_Checkpoints: §6.2 with checkpoint partial aborts [19].
func BenchmarkE4_Checkpoints(b *testing.B) { benchStrategy(b, "partialabort", 8) }

// BenchmarkE5_Boosting: §6.3 eager pessimistic (Figure 2) pattern.
func BenchmarkE5_Boosting(b *testing.B) { benchStrategy(b, "boosting", 8) }

// BenchmarkE5_MatveevShavit: §6.3 lazy pessimistic pattern.
func BenchmarkE5_MatveevShavit(b *testing.B) { benchStrategy(b, "matveev", 8) }

// BenchmarkE6_Irrevocable: §6.4 mixed irrevocable/optimistic pattern.
func BenchmarkE6_Irrevocable(b *testing.B) { benchStrategy(b, "irrevocable-mix", 8) }

// BenchmarkE7_Dependent: §6.5 dependent transactions with early release.
func BenchmarkE7_Dependent(b *testing.B) { benchStrategy(b, "dependent", 8) }

// BenchmarkE8_Explorer measures exhaustive interleaving exploration of
// a two-transaction program (the Theorem 5.17 model check).
func BenchmarkE8_Explorer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reg := pushpull.StandardRegistry()
		m := pushpull.NewMachine(reg, pushpull.Options{Mode: pushpull.MoverHybrid, EnforceGray: true})
		env := pushpull.NewEnv()
		cfg := pushpull.DriverConfig{Deterministic: true, RetryLimit: 2}
		t1, t2 := m.Spawn("t1"), m.Spawn("t2")
		ds := []pushpull.Driver{
			pushpull.NewOptimistic("t1", t1, []pushpull.Txn{pushpull.MustParseTxn(`tx a { ctr.inc(); }`)}, cfg, env),
			pushpull.NewOptimistic("t2", t2, []pushpull.Txn{pushpull.MustParseTxn(`tx b { set.add(1); }`)}, cfg, env),
		}
		res, err := pushpull.Explore(m, env, ds, 60, func(fm *pushpull.Machine) error {
			if rep := pushpull.CheckCommitOrder(fm); !rep.Serializable {
				return fmt.Errorf("unserializable: %v", rep)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Terminals == 0 {
			b.Fatal("no terminals")
		}
	}
}

// BenchmarkE9_MoverCheck measures the three left-mover deciders on the
// Section 2 put/put judgment.
func BenchmarkE9_MoverCheck(b *testing.B) {
	reg := pushpull.StandardRegistry()
	op1 := spec.Op{ID: 1, Obj: "ht", Method: adt.MMapPut, Args: []int64{1, 10}, Ret: spec.Absent}
	op2 := spec.Op{ID: 2, Obj: "ht", Method: adt.MMapPut, Args: []int64{2, 20}, Ret: spec.Absent}
	ctx := spec.Log{
		{ID: 3, Obj: "ht", Method: adt.MMapPut, Args: []int64{3, 30}, Ret: spec.Absent},
		{ID: 4, Obj: "ht", Method: adt.MMapPut, Args: []int64{4, 40}, Ret: spec.Absent},
	}
	b.Run("static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !spec.LeftMover(reg, spec.MoverStatic, ctx, op1, op2) {
				b.Fatal("static mover must hold")
			}
		}
	})
	b.Run("dynamic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !spec.LeftMover(reg, spec.MoverDynamic, ctx, op1, op2) {
				b.Fatal("dynamic mover must hold")
			}
		}
	})
}

// benchSubstrate drives the common workload on a real substrate.
func benchSubstrate(b *testing.B, name string, keys, yield int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunSubstrate(bench.SubstrateParams{
			Substrate: name, Threads: 4, OpsEach: 100, Keys: keys, ReadPct: 20,
			Seed: int64(i + 1), Yield: yield,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AbortRatio(), "abort_ratio")
	}
}

// The E10 family: substrate contention shapes (who wins where).
func BenchmarkE10_TL2_LowContention(b *testing.B)    { benchSubstrate(b, "tl2", 1024, 2) }
func BenchmarkE10_TL2_HighContention(b *testing.B)   { benchSubstrate(b, "tl2", 2, 2) }
func BenchmarkE10_Pess_LowContention(b *testing.B)   { benchSubstrate(b, "pess", 1024, 2) }
func BenchmarkE10_Pess_HighContention(b *testing.B)  { benchSubstrate(b, "pess", 2, 2) }
func BenchmarkE10_Boost_LowContention(b *testing.B)  { benchSubstrate(b, "boost", 1024, 2) }
func BenchmarkE10_Boost_HighContention(b *testing.B) { benchSubstrate(b, "boost", 2, 2) }
func BenchmarkE10_HTM_LowContention(b *testing.B)    { benchSubstrate(b, "htmsim", 1024, 2) }
func BenchmarkE10_HTM_HighContention(b *testing.B)   { benchSubstrate(b, "htmsim", 2, 2) }
func BenchmarkE10_Dep_LowContention(b *testing.B)    { benchSubstrate(b, "dep", 1024, 2) }
func BenchmarkE10_Dep_HighContention(b *testing.B)   { benchSubstrate(b, "dep", 2, 2) }

// BenchmarkE10_HTMCapacity measures the capacity-overflow fallback.
func BenchmarkE10_HTMCapacity(b *testing.B) {
	h := htmsim.New(4096)
	h.Capacity = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i * 37) % 2048
		err := h.Atomic("cap", func(tx *htmsim.Tx) error {
			for k := 0; k < 16; k++ {
				v, err := tx.Read(base + k)
				if err != nil {
					return err
				}
				if err := tx.Write(base+k, v+1); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	st := h.Stats()
	b.ReportMetric(float64(st.Fallbacks)/float64(b.N), "fallbacks/txn")
}
