package dep_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pushpull/internal/adt"
	"pushpull/internal/core"
	"pushpull/internal/serial"
	"pushpull/internal/spec"
	"pushpull/internal/stm/dep"
	"pushpull/internal/trace"
)

func TestSequential(t *testing.T) {
	m := dep.New(4)
	if err := m.Atomic("a", func(tx *dep.Tx) error {
		v, err := tx.Read(0)
		if err != nil {
			return err
		}
		return tx.Write(0, v+5)
	}); err != nil {
		t.Fatal(err)
	}
	if m.ReadNoTx(0) != 5 {
		t.Fatalf("mem[0] = %d", m.ReadNoTx(0))
	}
}

// TestEarlyReleaseVisible: a reader observes a writer's uncommitted
// value and becomes dependent; dependency forces commit ordering.
func TestEarlyReleaseVisible(t *testing.T) {
	reg := spec.NewRegistry()
	reg.Register("mem", adt.Register{})
	m := dep.New(4)
	m.Recorder = trace.NewRecorder(reg)
	m.Recorder.Journal = true
	earlyRelease(t, m)
}

// earlyRelease runs a writer that releases mem[0] = 77 early and a
// reader that observes it before the writer commits. The commit order
// is read from m's recorder, which must keep a journal: the certified
// order, not when each goroutine got around to noting its return.
func earlyRelease(t *testing.T, m *dep.Memory) {
	t.Helper()
	var stage sync.WaitGroup
	stage.Add(1)
	var release sync.WaitGroup
	release.Add(1)
	var observed atomic.Int64

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: writes early, holds the transaction open
		defer wg.Done()
		err := m.Atomic("writer", func(tx *dep.Tx) error {
			if err := tx.Write(0, 77); err != nil {
				return err
			}
			stage.Done()   // value released
			release.Wait() // keep uncommitted until reader observed it
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	go func() { // reader: sees the speculative value, commits after writer
		defer wg.Done()
		stage.Wait()
		err := m.Atomic("reader", func(tx *dep.Tx) error {
			v, err := tx.Read(0)
			if err != nil {
				return err
			}
			observed.Store(v)
			release.Done() // let the writer commit
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if observed.Load() != 77 {
		t.Fatalf("reader observed %d, want the early-released 77", observed.Load())
	}
	// The dependency must have delayed the reader past the writer's
	// commit in the certified order.
	pos := make(map[string]int)
	for i, e := range m.Recorder.JournalEntries() {
		pos[e.Name] = i
	}
	w, wok := pos["writer"]
	r, rok := pos["reader"]
	if !wok || !rok || r < w {
		t.Fatalf("reader committed before its dependency: certified order %v", pos)
	}
}

// TestCascadingAbort: the writer aborts after the reader became
// dependent; the reader must cascade (observed via stats) and retry to
// a consistent result.
func TestCascadingAbort(t *testing.T) {
	m := dep.New(4)
	var stage, release sync.WaitGroup
	stage.Add(1)
	release.Add(1)
	boom := fmt.Errorf("boom")

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		err := m.Atomic("writer", func(tx *dep.Tx) error {
			if err := tx.Write(0, 99); err != nil {
				return err
			}
			stage.Done()
			release.Wait()
			return boom // abort after the reader is entangled
		})
		if err != boom {
			t.Errorf("writer err = %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		stage.Wait()
		first := true
		err := m.Atomic("reader", func(tx *dep.Tx) error {
			v, err := tx.Read(0)
			if err != nil {
				return err
			}
			if first {
				first = false
				if v != 99 {
					t.Errorf("first attempt read %d, want speculative 99", v)
				}
				release.Done()
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if m.ReadNoTx(0) != 0 {
		t.Fatalf("mem[0] = %d after writer abort", m.ReadNoTx(0))
	}
	if m.Stats().Cascades == 0 {
		t.Fatalf("no cascade recorded: %+v", m.Stats())
	}
}

func TestConcurrentCounter(t *testing.T) {
	m := dep.New(2)
	const goroutines = 6
	const iters = 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := m.Atomic("inc", func(tx *dep.Tx) error {
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
	if got := m.ReadNoTx(0); got != goroutines*iters {
		t.Fatalf("counter = %d, want %d (stats %+v)", got, goroutines*iters, m.Stats())
	}
}

// TestCertifiedRun: dependent transactions certified on the shadow
// machine — the non-opaque fragment. The run must be serializable and,
// whenever an early release was actually observed, strictly non-opaque.
func TestCertifiedRun(t *testing.T) {
	reg := spec.NewRegistry()
	reg.Register("mem", adt.Register{})
	m := dep.New(8)
	m.Recorder = trace.NewRecorder(reg)
	var events core.EventLog
	m.Recorder.AttachSink(&events)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				addr := (g + i) % 8
				if err := m.Atomic(fmt.Sprintf("d%d-%d", g, i), func(tx *dep.Tx) error {
					v, err := tx.Read(addr)
					if err != nil {
						return err
					}
					return tx.Write(addr, v+1)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := m.Recorder.FinalCheck(); err != nil {
		for _, v := range m.Recorder.Violations() {
			t.Log(v)
		}
		t.Fatal(err)
	}
	var sum int64
	for a := 0; a < 8; a++ {
		sum += m.ReadNoTx(a)
	}
	if sum != 4*40 {
		t.Fatalf("sum = %d, want %d", sum, 4*40)
	}
	violations := serial.CheckOpacity(events)
	t.Logf("certified %d commits; stats %+v; opacity violations (expected under early release): %d",
		m.Recorder.Commits(), m.Stats(), len(violations))
}

// TestOpacityJudgedOnWholeRun: the recorder folds its history at every
// quiescent commit, so opacity is judged on a sink attached before the
// run. An uncommitted PULL in the run's first transactions must still
// be reported after many more commits have folded past it.
func TestOpacityJudgedOnWholeRun(t *testing.T) {
	reg := spec.NewRegistry()
	reg.Register("mem", adt.Register{})
	m := dep.New(4)
	m.Recorder = trace.NewRecorder(reg)
	m.Recorder.Journal = true
	var events core.EventLog
	m.Recorder.AttachSink(&events)

	earlyRelease(t, m)
	for i := 0; i < 100; i++ {
		if err := m.Atomic(fmt.Sprintf("after-%d", i), func(tx *dep.Tx) error {
			return tx.Write(1, int64(i))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Recorder.FinalCheck(); err != nil {
		t.Fatal(err)
	}
	if v := serial.CheckOpacity(events); len(v) != 1 || v[0].TxName != "reader" {
		t.Fatalf("opacity violations = %v, want the reader's one uncommitted pull", v)
	}
}
