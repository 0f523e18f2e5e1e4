package boost_test

import (
	"fmt"
	"sync"
	"testing"

	"pushpull/internal/adt"
	"pushpull/internal/spec"
	"pushpull/internal/stm/boost"
	"pushpull/internal/trace"
)

func TestFig2PutGetSemantics(t *testing.T) {
	rt := boost.NewRuntime()
	ht := boost.NewMap(rt, "ht", 1)
	err := rt.Atomic("fig2", func(tx *boost.Txn) error {
		old, present, err := ht.Put(tx, 1, 10)
		if err != nil {
			return err
		}
		if present {
			return fmt.Errorf("fresh key reported present (old=%d)", old)
		}
		v, present, err := ht.Get(tx, 1)
		if err != nil {
			return err
		}
		if !present || v != 10 {
			return fmt.Errorf("get = %d,%v", v, present)
		}
		old, present, err = ht.Put(tx, 1, 20)
		if err != nil {
			return err
		}
		if !present || old != 10 {
			return fmt.Errorf("overwrite old = %d,%v", old, present)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := ht.Base().Get(1); !ok || v != 20 {
		t.Fatalf("base map = %d,%v", v, ok)
	}
}

func TestAbortRunsInverses(t *testing.T) {
	rt := boost.NewRuntime()
	ht := boost.NewMap(rt, "ht", 1)
	// Pre-populate key 1.
	if err := rt.Atomic("seed", func(tx *boost.Txn) error {
		_, _, err := ht.Put(tx, 1, 100)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	// Both Figure 2 abort cases: overwrite (restore old) and fresh
	// insert (remove).
	err := rt.Atomic("aborter", func(tx *boost.Txn) error {
		if _, _, err := ht.Put(tx, 1, 999); err != nil { // overwrite case
			return err
		}
		if _, _, err := ht.Put(tx, 2, 222); err != nil { // fresh case
			return err
		}
		return boom
	})
	if err != boom {
		t.Fatalf("err = %v", err)
	}
	if v, ok := ht.Base().Get(1); !ok || v != 100 {
		t.Fatalf("key 1 not restored: %d,%v", v, ok)
	}
	if ht.Base().Contains(2) {
		t.Fatal("key 2 not removed by inverse")
	}
	if rt.Stats().Aborts != 1 {
		t.Fatalf("stats %+v", rt.Stats())
	}
}

func TestConcurrentDistinctKeysProceed(t *testing.T) {
	rt := boost.NewRuntime()
	s := boost.NewSet(rt, "set", 2)
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := int64(g*perG + i)
				if err := rt.Atomic("adder", func(tx *boost.Txn) error {
					ins, err := s.Add(tx, k)
					if err != nil {
						return err
					}
					if !ins {
						return fmt.Errorf("key %d already present", k)
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.Base().Len(); got != goroutines*perG {
		t.Fatalf("set size = %d, want %d", got, goroutines*perG)
	}
}

func TestCounterAtomicity(t *testing.T) {
	rt := boost.NewRuntime()
	ctr := boost.NewCounter(rt, "ctr")
	const goroutines = 6
	const perG = 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := rt.Atomic("inc", func(tx *boost.Txn) error {
					return ctr.Inc(tx)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ctr.Value() != goroutines*perG {
		t.Fatalf("counter = %d", ctr.Value())
	}
}

// TestDeadlockAvoidance: opposite lock orders on two keys; abstract
// lock timeouts must abort-and-retry through to completion.
func TestDeadlockAvoidance(t *testing.T) {
	rt := boost.NewRuntime()
	rt.LockSpins = 8
	ht := boost.NewMap(rt, "ht", 3)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a, b := int64(g), int64(1-g)
			for i := 0; i < 200; i++ {
				if err := rt.Atomic("xfer", func(tx *boost.Txn) error {
					va, _, err := ht.Get(tx, a)
					if err != nil {
						return err
					}
					vb, _, err := ht.Get(tx, b)
					if err != nil {
						return err
					}
					if _, _, err := ht.Put(tx, a, va+1); err != nil {
						return err
					}
					_, _, err = ht.Put(tx, b, vb+1)
					return err
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	v0, _ := ht.Base().Get(0)
	v1, _ := ht.Base().Get(1)
	if v0+v1 != 2*2*200 {
		t.Fatalf("sum = %d (lost updates under deadlock recovery)", v0+v1)
	}
	t.Logf("aborts due to lock timeout: %d", rt.Stats().Aborts)
}

// TestCertifiedRun: a concurrent boosted workload certified operation
// by operation on the shadow Push/Pull machine — the mechanical Figure
// 2 correctness argument.
func TestCertifiedRun(t *testing.T) {
	reg := spec.NewRegistry()
	reg.Register("ht", adt.Map{})
	reg.Register("set", adt.Set{})
	rt := boost.NewRuntime()
	rt.Recorder = trace.NewRecorder(reg)
	ht := boost.NewMap(rt, "ht", 4)
	s := boost.NewSet(rt, "set", 5)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := int64((g*3 + i) % 10)
				err := rt.Atomic(fmt.Sprintf("b%d-%d", g, i), func(tx *boost.Txn) error {
					v, present, err := ht.Get(tx, k)
					if err != nil {
						return err
					}
					if !present {
						v = 0
					}
					if _, _, err := ht.Put(tx, k, v+1); err != nil {
						return err
					}
					_, err = s.Add(tx, k)
					return err
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := rt.Recorder.FinalCheck(); err != nil {
		for _, v := range rt.Recorder.Violations() {
			t.Log(v)
		}
		t.Fatal(err)
	}
	t.Logf("certified %d commits; stats %+v", rt.Recorder.Commits(), rt.Stats())
}

// TestStripedBaseCertifiedRun runs a map-only certified workload of
// read-modify-write increments and checks the base's final sum. The
// name dates from when it ran over a lock-striped base; the boosted
// map now always holds the skiplist.
func TestStripedBaseCertifiedRun(t *testing.T) {
	reg := spec.NewRegistry()
	reg.Register("ht", adt.Map{})
	rt := boost.NewRuntime()
	rt.Recorder = trace.NewRecorder(reg)
	ht := boost.NewMap(rt, "ht", 7)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := int64((g*5 + i) % 12)
				err := rt.Atomic(fmt.Sprintf("sm%d-%d", g, i), func(tx *boost.Txn) error {
					v, present, err := ht.Get(tx, k)
					if err != nil {
						return err
					}
					if !present {
						v = 0
					}
					_, _, err2 := ht.Put(tx, k, v+1)
					return err2
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := rt.Recorder.FinalCheck(); err != nil {
		for _, v := range rt.Recorder.Violations() {
			t.Log(v)
		}
		t.Fatal(err)
	}
	var sum int64
	ht.Base().Range(func(_, v int64) bool { sum += v; return true })
	if sum != 4*40 {
		t.Fatalf("sum = %d, want %d", sum, 4*40)
	}
}

// TestStripedBaseAbortInverses: the Figure 2 inverse-operations abort
// restores an overwritten key and removes a fresh one in the base.
func TestStripedBaseAbortInverses(t *testing.T) {
	rt := boost.NewRuntime()
	ht := boost.NewMap(rt, "ht", 8)
	if err := rt.Atomic("seed", func(tx *boost.Txn) error {
		_, _, err := ht.Put(tx, 1, 100)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	if err := rt.Atomic("ab", func(tx *boost.Txn) error {
		if _, _, err := ht.Put(tx, 1, 999); err != nil {
			return err
		}
		if _, _, err := ht.Put(tx, 2, 2); err != nil {
			return err
		}
		return boom
	}); err != boom {
		t.Fatalf("err = %v", err)
	}
	if v, ok := ht.Base().Get(1); !ok || v != 100 {
		t.Fatalf("key 1 = %d,%v, want restored 100", v, ok)
	}
	if ht.Base().Contains(2) {
		t.Fatal("key 2 not removed by inverse")
	}
}

func BenchmarkBoostDistinctKeys(b *testing.B) {
	rt := boost.NewRuntime()
	s := boost.NewSet(rt, "set", 6)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := int64(i % 4096)
			i++
			_ = rt.Atomic("bench", func(tx *boost.Txn) error {
				_, err := s.Add(tx, k)
				return err
			})
		}
	})
}
