// Dependent transactions (§6.5): a producer releases its writes early;
// consumers observe the uncommitted values and become dependent —
// committing only after the producer does, and cascading when it
// aborts. The run demonstrates both outcomes and checks that the
// certified history is serializable yet (strictly) non-opaque.
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"pushpull"
	"pushpull/internal/adt"
	"pushpull/internal/stm/dep"
)

func main() {
	reg := pushpull.NewRegistry()
	reg.Register("mem", adt.Register{})
	rec := pushpull.NewRecorder(reg)
	var events pushpull.EventLog // the full trace, to inspect opacity
	rec.AttachSink(&events)

	m := dep.New(8)
	m.Recorder = rec

	// --- scenario 1: dependency forces commit order -------------------
	var producerCommitted atomic.Bool
	var observedEarly atomic.Int64
	var stage, release sync.WaitGroup
	stage.Add(1)
	release.Add(1)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // producer: writes 0←41, holds the txn open, then commits
		defer wg.Done()
		err := m.Atomic("producer", func(tx *dep.Tx) error {
			if err := tx.Write(0, 41); err != nil {
				return err
			}
			stage.Done()   // value released early
			release.Wait() // stay uncommitted until the consumer looked
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		producerCommitted.Store(true)
	}()
	go func() { // consumer: reads the speculative 41
		defer wg.Done()
		stage.Wait()
		err := m.Atomic("consumer", func(tx *dep.Tx) error {
			v, err := tx.Read(0)
			if err != nil {
				return err
			}
			observedEarly.Store(v)
			release.Done()
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		if !producerCommitted.Load() {
			log.Fatal("consumer committed before its dependency!")
		}
	}()
	wg.Wait()
	fmt.Printf("consumer observed the uncommitted value %d and committed after the producer\n",
		observedEarly.Load())

	// --- scenario 2: cascading abort ----------------------------------
	stage = sync.WaitGroup{}
	release = sync.WaitGroup{}
	stage.Add(1)
	release.Add(1)
	boom := fmt.Errorf("producer failure")
	wg.Add(2)
	go func() {
		defer wg.Done()
		err := m.Atomic("aborter", func(tx *dep.Tx) error {
			if err := tx.Write(1, 99); err != nil {
				return err
			}
			stage.Done()
			release.Wait()
			return boom // abort with the consumer entangled
		})
		if err != boom {
			log.Fatalf("aborter err = %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		stage.Wait()
		err := m.Atomic("victim", func(tx *dep.Tx) error {
			v, err := tx.Read(1)
			if err != nil {
				return err
			}
			if v == 99 {
				release.Done() // let the producer abort under us, once
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
	}()
	wg.Wait()
	st := m.Stats()
	fmt.Printf("cascading aborts: %d (victim detangled and re-ran)\n", st.Cascades)
	if m.ReadNoTx(1) != 0 {
		log.Fatal("aborted write leaked")
	}

	// --- verdicts ------------------------------------------------------
	if err := rec.FinalCheck(); err != nil {
		log.Fatal(err)
	}
	violations := pushpull.CheckOpacity(events)
	fmt.Printf("certified %d commits: serializable; strict opacity violations: %d (expected > 0)\n",
		rec.Commits(), len(violations))
	if len(violations) == 0 {
		log.Fatal("expected the early-release observation to break strict opacity")
	}
}
