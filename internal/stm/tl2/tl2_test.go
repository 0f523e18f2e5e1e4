package tl2_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"pushpull/internal/adt"
	"pushpull/internal/chaos"
	"pushpull/internal/spec"
	"pushpull/internal/stm/tl2"
	"pushpull/internal/trace"
)

func TestSequentialReadWrite(t *testing.T) {
	m := tl2.New(8)
	err := m.Atomic(func(tx *tl2.Tx) error {
		if err := tx.Write(0, 42); err != nil {
			return err
		}
		v, err := tx.Read(0)
		if err != nil {
			return err
		}
		if v != 42 {
			return fmt.Errorf("read own write = %d", v)
		}
		return tx.Write(1, v+1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.ReadNoTx(0) != 42 || m.ReadNoTx(1) != 43 {
		t.Fatalf("memory = %d,%d", m.ReadNoTx(0), m.ReadNoTx(1))
	}
	st := m.Stats()
	if st.Commits != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestUserErrorAbortsWithoutRetry(t *testing.T) {
	m := tl2.New(4)
	boom := errors.New("boom")
	err := m.Atomic(func(tx *tl2.Tx) error {
		if err := tx.Write(0, 1); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if m.ReadNoTx(0) != 0 {
		t.Fatal("aborted write leaked")
	}
}

// TestConcurrentCounter: N goroutines increment one word; the final
// value must be exactly N*iters (atomicity), a test lost updates fail.
func TestConcurrentCounter(t *testing.T) {
	m := tl2.New(4)
	const goroutines = 8
	const iters = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := m.Atomic(func(tx *tl2.Tx) error {
					v, err := tx.Read(0)
					if err != nil {
						return err
					}
					return tx.Write(0, v+1)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := m.ReadNoTx(0); got != goroutines*iters {
		t.Fatalf("counter = %d, want %d (lost updates!)", got, goroutines*iters)
	}
}

// TestBankTransferInvariant: concurrent transfers conserve the total —
// the canonical serializability smoke test.
func TestBankTransferInvariant(t *testing.T) {
	const accounts = 8
	const total = int64(8000)
	m := tl2.New(accounts)
	if err := m.Atomic(func(tx *tl2.Tx) error {
		for a := 0; a < accounts; a++ {
			if err := tx.Write(a, total/accounts); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				from := (g + i) % accounts
				to := (g + i + 1) % accounts
				err := m.Atomic(func(tx *tl2.Tx) error {
					fv, err := tx.Read(from)
					if err != nil {
						return err
					}
					tv, err := tx.Read(to)
					if err != nil {
						return err
					}
					if err := tx.Write(from, fv-1); err != nil {
						return err
					}
					return tx.Write(to, tv+1)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var sum int64
	for a := 0; a < accounts; a++ {
		sum += m.ReadNoTx(a)
	}
	if sum != total {
		t.Fatalf("total = %d, want %d", sum, total)
	}
}

// TestCertifiedRun attaches a shadow Push/Pull machine: every commit is
// replayed as PULL*,APP*,PUSH*,CMT with all criteria checked. The run
// must certify with zero violations (Theorem 5.17 instantiated for a
// real concurrent TL2 execution).
func TestCertifiedRun(t *testing.T) {
	reg := spec.NewRegistry()
	reg.Register("mem", adt.Register{})
	m := tl2.New(16)
	m.Name = "mem"
	m.Recorder = trace.NewRecorder(reg)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				addr := (g*7 + i) % 16
				err := m.AtomicNamed(fmt.Sprintf("g%d-%d", g, i), func(tx *tl2.Tx) error {
					v, err := tx.Read(addr)
					if err != nil {
						return err
					}
					if err := tx.Write(addr, v+1); err != nil {
						return err
					}
					// A read-mostly tail to exercise pulls.
					_, err = tx.Read((addr + 1) % 16)
					return err
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Read-only transactions certify through AtomicTxnFunc.
	for i := 0; i < 40; i++ {
		err := m.AtomicNamed(fmt.Sprintf("ro-%d", i), func(tx *tl2.Tx) error {
			_, err := tx.Read(i % 16)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := m.Recorder.FinalCheck(); err != nil {
		for _, v := range m.Recorder.Violations() {
			t.Log(v)
		}
		t.Fatal(err)
	}
	if m.Recorder.Commits() == 0 {
		t.Fatal("nothing certified")
	}
	t.Logf("certified %d commits; stats %+v", m.Recorder.Commits(), m.Stats())
}

func BenchmarkTL2LowContention(b *testing.B) {
	m := tl2.New(1024)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			addr := (i * 31) % 1024
			i++
			_ = m.Atomic(func(tx *tl2.Tx) error {
				v, err := tx.Read(addr)
				if err != nil {
					return err
				}
				return tx.Write(addr, v+1)
			})
		}
	})
}

func BenchmarkTL2HighContention(b *testing.B) {
	m := tl2.New(4)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = m.Atomic(func(tx *tl2.Tx) error {
				v, err := tx.Read(0)
				if err != nil {
					return err
				}
				return tx.Write(0, v+1)
			})
		}
	})
}

// TestRefusedCertificateRollsBack breaks the protocol on purpose — a
// plan naming chaos.SiteTL2SkipRevalidate lets one commit skip its
// read-set validation — so a stale read reaches the certifier. The
// refused transaction must roll back: its write is never read back,
// the substrate image equals the certified state, and later commits on
// the same words certify.
func TestRefusedCertificateRollsBack(t *testing.T) {
	reg := spec.NewRegistry()
	reg.Register("mem", adt.Register{})
	m := tl2.New(4)
	m.Name = "mem"
	m.Recorder = trace.NewRecorder(reg)
	m.Recorder.Journal = true
	plan := chaos.NewPlan(1).WithScript(chaos.SiteTL2SkipRevalidate, []bool{false, true})
	m.Injector = plan.Injector()

	// "stale" reads word 0, lets "writer" commit 5 to it, then writes
	// word 1 from the stale read. Its commit skips validation (the
	// second visit of the site), so only the certifier catches it.
	wrote := false
	err := m.AtomicNamed("stale", func(tx *tl2.Tx) error {
		v, err := tx.Read(0)
		if err != nil {
			return err
		}
		if !wrote {
			wrote = true
			if err := m.AtomicNamed("writer", func(w *tl2.Tx) error { return w.Write(0, 5) }); err != nil {
				return err
			}
		}
		return tx.Write(1, v+1)
	})
	var v trace.Violation
	if !errors.As(err, &v) || v.Txn != "stale" {
		t.Fatalf("refused commit returned %v, want its own violation", err)
	}
	if n := m.Recorder.ViolationCount(); n != 1 {
		t.Fatalf("%d violations recorded, want 1", n)
	}
	if got := m.ReadNoTx(1); got != 0 {
		t.Fatalf("refused write is visible: word 1 = %d", got)
	}

	// The substrate image equals the certified state: replay the
	// certified journal's writes.
	certified := make([]int64, 4)
	for _, e := range m.Recorder.JournalEntries() {
		for _, op := range e.Ops {
			if op.Method == "write" {
				certified[op.Args[0]] = op.Args[1]
			}
		}
	}
	for a := range certified {
		if got := m.ReadNoTx(a); got != certified[a] {
			t.Fatalf("word %d: substrate %d, certified %d", a, got, certified[a])
		}
	}

	// Later commits on the same words certify.
	for i := 0; i < 3; i++ {
		if err := m.AtomicNamed(fmt.Sprintf("after%d", i), func(tx *tl2.Tx) error {
			x, err := tx.Read(0)
			if err != nil {
				return err
			}
			y, err := tx.Read(1)
			if err != nil {
				return err
			}
			return tx.Write(1, x+y)
		}); err != nil {
			t.Fatalf("commit after the refusal: %v", err)
		}
	}
	if got := m.ReadNoTx(1); got != 15 {
		t.Fatalf("word 1 = %d after three x+y commits, want 15", got)
	}
	if err := m.Recorder.Err(); err == nil || m.Recorder.ViolationCount() != 1 {
		t.Fatalf("later commits changed the verdict: %v (%d violations)", err, m.Recorder.ViolationCount())
	}
}
