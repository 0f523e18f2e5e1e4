// Optimistic STM (§6.2): the classic concurrent bank-transfer workload
// on the TL2-style word STM, with every commit certified on the shadow
// Push/Pull machine: PULL the committed snapshot, APP the reads and
// writes, PUSH everything at the validated commit point, CMT.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"pushpull"
	"pushpull/internal/adt"
	"pushpull/internal/stm/tl2"
)

func main() {
	const accounts = 16
	const initial = int64(1000)
	const goroutines = 4
	const transfers = 100

	reg := pushpull.NewRegistry()
	reg.Register("mem", adt.Register{})
	rec := pushpull.NewRecorder(reg)
	var events pushpull.EventLog
	rec.AttachSink(&events)

	m := tl2.New(accounts)
	m.Recorder = rec

	// Fund the accounts.
	if err := m.AtomicNamed("init", func(tx *tl2.Tx) error {
		for a := 0; a < accounts; a++ {
			if err := tx.Write(a, initial); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < transfers; i++ {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				if from == to {
					continue
				}
				amount := int64(rng.Intn(50) + 1)
				err := m.AtomicNamed(fmt.Sprintf("xfer-%d-%d", g, i), func(tx *tl2.Tx) error {
					fv, err := tx.Read(from)
					if err != nil {
						return err
					}
					tv, err := tx.Read(to)
					if err != nil {
						return err
					}
					if err := tx.Write(from, fv-amount); err != nil {
						return err
					}
					return tx.Write(to, tv+amount)
				})
				if err != nil {
					log.Fatal(err)
				}
			}
		}(g)
	}
	wg.Wait()

	// Audit: a read-only transaction (certified through the same shadow
	// machine) must see the conserved total.
	var total int64
	if err := m.AtomicNamed("audit", func(tx *tl2.Tx) error {
		total = 0
		for a := 0; a < accounts; a++ {
			v, err := tx.Read(a)
			if err != nil {
				return err
			}
			total += v
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audited total: %d (want %d)\n", total, accounts*initial)
	if total != accounts*initial {
		log.Fatal("money created or destroyed!")
	}

	if err := rec.FinalCheck(); err != nil {
		log.Fatal(err)
	}
	st := m.Stats()
	fmt.Printf("TL2: %d commits, %d aborts (validation conflicts), all certified serializable\n",
		st.Commits, st.Aborts)
	if v := pushpull.CheckOpacity(events); len(v) == 0 {
		fmt.Println("opacity: preserved (optimistic transactions never observe uncommitted state)")
	}
}
