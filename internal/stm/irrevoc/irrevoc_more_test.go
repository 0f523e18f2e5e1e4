package irrevoc_test

import (
	"errors"
	"sync"
	"testing"

	"pushpull/internal/adt"
	"pushpull/internal/spec"
	"pushpull/internal/stm/irrevoc"
	"pushpull/internal/trace"
)

// TestReadOnlyOptimisticPath: read-only transactions skip the write
// protocol entirely and still observe consistent snapshots.
func TestReadOnlyOptimisticPath(t *testing.T) {
	m := irrevoc.New(4)
	if err := m.Atomic("w", func(tx *irrevoc.Tx) error {
		if err := tx.Write(0, 10); err != nil {
			return err
		}
		return tx.Write(1, 20)
	}); err != nil {
		t.Fatal(err)
	}
	var a, b int64
	if err := m.Atomic("ro", func(tx *irrevoc.Tx) error {
		var err error
		if a, err = tx.Read(0); err != nil {
			return err
		}
		b, err = tx.Read(1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if a != 10 || b != 20 {
		t.Fatalf("snapshot = %d,%d", a, b)
	}
	if m.Stats().OptCommits != 2 {
		t.Fatalf("stats %+v", m.Stats())
	}
}

// TestReadOnlyCertifiedSnapshot: read-only commits certify through the
// recorder's critical section (the consistent-snapshot discipline).
func TestReadOnlyCertifiedSnapshot(t *testing.T) {
	reg := spec.NewRegistry()
	reg.Register("mem", adt.Register{})
	m := irrevoc.New(8)
	m.Recorder = trace.NewRecorder(reg)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := m.AtomicIrrevocable("irr", func(tx *irrevoc.IrrevTx) error {
				v, err := tx.Read(0)
				if err != nil {
					return err
				}
				if err := tx.Write(0, v+1); err != nil {
					return err
				}
				w, err := tx.Read(1)
				if err != nil {
					return err
				}
				return tx.Write(1, w+1)
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if err := m.Atomic("ro", func(tx *irrevoc.Tx) error {
				a, err := tx.Read(0)
				if err != nil {
					return err
				}
				b, err := tx.Read(1)
				if err != nil {
					return err
				}
				if a != b {
					t.Errorf("torn snapshot: %d vs %d", a, b)
				}
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := m.Recorder.FinalCheck(); err != nil {
		for _, v := range m.Recorder.Violations() {
			t.Log(v)
		}
		t.Fatal(err)
	}
}

// TestIrrevocableSerializesWithItself: the token admits one irrevocable
// transaction at a time; totals stay exact under parallelism.
func TestIrrevocableSerializesWithItself(t *testing.T) {
	m := irrevoc.New(2)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := m.AtomicIrrevocable("irr", func(tx *irrevoc.IrrevTx) error {
					v, err := tx.Read(0)
					if err != nil {
						return err
					}
					return tx.Write(0, v+1)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := m.ReadNoTx(0); got != 200 {
		t.Fatalf("counter = %d, want 200", got)
	}
}

// TestRefusedCertificateRollsBack: a recorder attached after a commit
// it never saw disagrees with the substrate about word 0, so the next
// optimistic commit reading word 0 is refused by the certifier. The
// refusal must roll back: its write is never read back, the substrate
// equals its state before the refusal overlaid with the certified
// journal, and a later blind write to the same word certifies.
func TestRefusedCertificateRollsBack(t *testing.T) {
	m := irrevoc.New(4)
	if err := m.Atomic("unrecorded", func(tx *irrevoc.Tx) error { return tx.Write(0, 5) }); err != nil {
		t.Fatal(err)
	}
	base := make([]int64, 4)
	for a := range base {
		base[a] = m.ReadNoTx(a)
	}
	reg := spec.NewRegistry()
	reg.Register("mem", adt.Register{})
	m.Recorder = trace.NewRecorder(reg)
	m.Recorder.Journal = true

	err := m.Atomic("stale", func(tx *irrevoc.Tx) error {
		v, err := tx.Read(0)
		if err != nil {
			return err
		}
		return tx.Write(1, v+1)
	})
	var v trace.Violation
	if !errors.As(err, &v) || v.Txn != "stale" {
		t.Fatalf("refused commit returned %v, want its own violation", err)
	}
	if got := m.ReadNoTx(1); got != 0 {
		t.Fatalf("refused write is visible: word 1 = %d", got)
	}
	want := append([]int64(nil), base...)
	for _, e := range m.Recorder.JournalEntries() {
		for _, op := range e.Ops {
			if op.Method == "write" {
				want[op.Args[0]] = op.Args[1]
			}
		}
	}
	for a := range want {
		if got := m.ReadNoTx(a); got != want[a] {
			t.Fatalf("word %d: substrate %d, certified %d", a, got, want[a])
		}
	}

	if err := m.Atomic("after", func(tx *irrevoc.Tx) error { return tx.Write(1, 7) }); err != nil {
		t.Fatalf("blind write after the refusal: %v", err)
	}
	if got := m.ReadNoTx(1); got != 7 {
		t.Fatalf("word 1 = %d after the certified write, want 7", got)
	}
}
