package backend

import (
	"fmt"
	"sync"
	"testing"
)

// TestBackendAllSubstrates exercises every backend through the View
// surface: writes land, reads see them, concurrent increments conserve,
// and the whole run certifies.
func TestBackendAllSubstrates(t *testing.T) {
	for _, sub := range Substrates() {
		sub := sub
		t.Run(sub, func(t *testing.T) {
			be, err := NewBackend(Config{Substrate: sub, Keys: 32, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			// Sequential writes and read-back.
			for k := uint64(0); k < 8; k++ {
				k := k
				err := be.Atomic(fmt.Sprintf("w-%d", k), func(v View) error {
					return v.Put(k, int64(100+k))
				})
				if err != nil {
					t.Fatalf("put %d: %v", k, err)
				}
			}
			err = be.Atomic("readback", func(v View) error {
				for k := uint64(0); k < 8; k++ {
					val, found, err := v.Get(k)
					if err != nil {
						return err
					}
					if !found || val != int64(100+k) {
						return fmt.Errorf("key %d = (%d, %v), want (%d, true)", k, val, found, 100+k)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("readback: %v", err)
			}
			if v, _ := be.ReadKey(3); v != 103 {
				t.Fatalf("ReadKey(3) = %d, want 103", v)
			}

			// Concurrent read-modify-write on one key: every committed
			// increment must survive.
			const workers, each = 4, 25
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						err := be.Atomic(fmt.Sprintf("inc-%d-%d", w, i), func(v View) error {
							val, _, err := v.Get(20)
							if err != nil {
								return err
							}
							return v.Put(20, val+1)
						})
						if err != nil {
							t.Errorf("inc: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if v, _ := be.ReadKey(20); v != workers*each {
				t.Fatalf("counter = %d, want %d (lost updates)", v, workers*each)
			}

			commits, _ := be.Stats()
			if commits == 0 {
				t.Fatal("no commits recorded")
			}
			if err := be.LeakCheck(); err != nil {
				t.Fatal(err)
			}
			if err := be.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
			rec := be.Recorder()
			if rec == nil {
				t.Fatal("certification unexpectedly disabled")
			}
			if err := rec.FinalCheck(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBackendUnknownSubstrate(t *testing.T) {
	if _, err := NewBackend(Config{Substrate: "quantum"}); err == nil {
		t.Fatal("want error for unknown substrate")
	}
	if _, err := RegistryFor("quantum"); err == nil {
		t.Fatal("want registry error for unknown substrate")
	}
}

// TestBackendFoundSemantics pins the surface difference between word
// and map substrates: registers always exist (zero), map keys don't
// until put.
func TestBackendFoundSemantics(t *testing.T) {
	for _, sub := range []string{"tl2", "boost"} {
		be, err := NewBackend(Config{Substrate: sub, Keys: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var found bool
		err = be.Atomic("probe", func(v View) error {
			_, f, err := v.Get(5)
			found = f
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		wantFound := sub == "tl2" // registers always exist
		if found != wantFound {
			t.Fatalf("%s: Get(missing) found = %v, want %v", sub, found, wantFound)
		}
	}
}
