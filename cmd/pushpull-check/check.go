package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pushpull"
	"pushpull/internal/adt"
	"pushpull/internal/bench"
	"pushpull/internal/history"
	"pushpull/internal/spec"
	"pushpull/internal/stm/boost"
	"pushpull/internal/stm/dep"
	"pushpull/internal/stm/pess"
	"pushpull/internal/stm/tl2"
	"pushpull/internal/trace"
)

// The four single-process checks: random, exhaustive, substrate, replay.

func checkRandom(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("random", flag.ContinueOnError)
	strat := fs.String("strategy", "optimistic", "model strategy: optimistic | partialabort | boosting | matveev | dependent | irrevocable-mix")
	threads := fs.Int("threads", 3, "worker threads")
	txns := fs.Int("txns", 4, "transactions per thread")
	keys := fs.Int("keys", 6, "key range (contention)")
	seeds := fs.Int("seeds", 20, "number of scheduler seeds to try")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	bad := 0
	for seed := 1; seed <= *seeds; seed++ {
		res, err := bench.RunModel(bench.ModelParams{
			Strategy: *strat, Threads: *threads, TxnsEach: *txns, Keys: *keys,
			ReadPct: 25, Seed: int64(seed),
		})
		if err != nil {
			return err
		}
		verdict := "serializable"
		if !res.Serializable {
			verdict = "NOT SERIALIZABLE"
			bad++
		}
		fmt.Fprintf(stdout, "seed %3d: commits=%d aborts=%d gaveup=%d opaque=%v → %s\n",
			seed, res.Commits, res.Aborts, res.GaveUp, res.Opaque, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%d/%d runs failed certification", bad, *seeds)
	}
	fmt.Fprintf(stdout, "all %d runs certified serializable (strategy %s)\n", *seeds, *strat)
	return nil
}

func checkExhaustive(args []string, stdout, stderr io.Writer) error {
	if err := parse(flag.NewFlagSet("exhaustive", flag.ContinueOnError), args, stderr); err != nil {
		return err
	}
	reg := pushpull.StandardRegistry()
	m := pushpull.NewMachine(reg, pushpull.Options{Mode: pushpull.MoverHybrid, EnforceGray: true})
	env := pushpull.NewEnv()
	cfg := pushpull.DriverConfig{Deterministic: true, RetryLimit: 2}
	t1, t2 := m.Spawn("t1"), m.Spawn("t2")
	ds := []pushpull.Driver{
		pushpull.NewOptimistic("t1", t1,
			[]pushpull.Txn{pushpull.MustParseTxn(`tx a { ctr.inc(); set.add(1); }`)}, cfg, env),
		pushpull.NewBoosting("t2", t2,
			[]pushpull.Txn{pushpull.MustParseTxn(`tx b { set.add(2); ctr.inc(); }`)}, cfg, env),
	}
	res, err := pushpull.Explore(m, env, ds, 100, func(fm *pushpull.Machine) error {
		if rep := pushpull.CheckCommitOrder(fm); !rep.Serializable {
			return fmt.Errorf("unserializable terminal: %v", rep)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "explored %d terminal interleavings (%d deadlock nodes, %d pruned): all serializable\n",
		res.Terminals, res.Deadlocks, res.Pruned)
	return nil
}

func checkSubstrate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("substrate", flag.ContinueOnError)
	name := fs.String("substrate", "tl2", "substrate: tl2 | pess | boost | dep")
	threadsF := fs.Int("threads", 3, "worker goroutines")
	txnsF := fs.Int("txns", 4, "transactions per goroutine")
	keysF := fs.Int("keys", 6, "key range (contention)")
	recordF := fs.String("record", "", "write the certified history to this JSON file")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	threads, txns, keys, record := *threadsF, *txnsF, *keysF, *recordF

	reg := spec.NewRegistry()
	reg.Register("mem", adt.Register{})
	reg.Register("ht", adt.Map{})
	rec := trace.NewRecorder(reg)
	if record != "" {
		rec.Journal = true
	}

	runWorkers := func(do func(g, i int) error) error {
		done := make(chan error, threads)
		for g := 0; g < threads; g++ {
			go func(g int) {
				for i := 0; i < txns; i++ {
					if err := do(g, i); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}(g)
		}
		var first error
		for g := 0; g < threads; g++ {
			if err := <-done; err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	var err error
	switch *name {
	case "tl2":
		m := tl2.New(keys)
		m.Recorder = rec
		err = runWorkers(func(g, i int) error {
			addr := (g + i) % keys
			return m.AtomicNamed(fmt.Sprintf("g%d-%d", g, i), func(tx *tl2.Tx) error {
				v, err := tx.Read(addr)
				if err != nil {
					return err
				}
				return tx.Write(addr, v+1)
			})
		})
	case "pess":
		m := pess.New(keys)
		m.Recorder = rec
		err = runWorkers(func(g, i int) error {
			addr := (g + i) % keys
			return m.AtomicNamed(fmt.Sprintf("g%d-%d", g, i), func(tx *pess.Tx) error {
				v, err := tx.Read(addr)
				if err != nil {
					return err
				}
				return tx.Write(addr, v+1)
			})
		})
	case "boost":
		rt := boost.NewRuntime()
		rt.Recorder = rec
		ht := boost.NewMap(rt, "ht", 1)
		err = runWorkers(func(g, i int) error {
			key := int64((g + i) % keys)
			return rt.Atomic(fmt.Sprintf("g%d-%d", g, i), func(tx *boost.Txn) error {
				v, present, err := ht.Get(tx, key)
				if err != nil {
					return err
				}
				if !present {
					v = 0
				}
				_, _, err = ht.Put(tx, key, v+1)
				return err
			})
		})
	case "dep":
		m := dep.New(keys)
		m.Recorder = rec
		err = runWorkers(func(g, i int) error {
			addr := (g + i) % keys
			return m.Atomic(fmt.Sprintf("g%d-%d", g, i), func(tx *dep.Tx) error {
				v, err := tx.Read(addr)
				if err != nil {
					return err
				}
				return tx.Write(addr, v+1)
			})
		})
	default:
		fmt.Fprintf(stderr, "pushpull-check substrate: unknown substrate %q\n", *name)
		return errUsage
	}
	if err != nil {
		return err
	}

	if err := rec.FinalCheck(); err != nil {
		for _, v := range rec.Violations() {
			fmt.Fprintln(stderr, "  ", v)
		}
		return err
	}
	fmt.Fprintf(stdout, "substrate %s: %d commits certified against the Push/Pull model, 0 violations\n",
		*name, rec.Commits())
	if record != "" {
		f := history.Capture(rec, []history.ObjectDecl{
			{Name: "mem", Type: "register"}, {Name: "ht", Type: "map"},
		})
		out, err := os.Create(record)
		if err != nil {
			return err
		}
		if err := history.Save(out, f); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "history with %d transactions written to %s\n", len(f.Txns), record)
	}
	return nil
}

func checkReplay(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	path := fs.String("history", "", "history file to re-certify")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *path == "" {
		fmt.Fprintln(stderr, "pushpull-check replay: need -history <file>")
		return errUsage
	}
	in, err := os.Open(*path)
	if err != nil {
		return err
	}
	defer in.Close()
	f, err := history.Load(in)
	if err != nil {
		return err
	}
	rep, err := history.Replay(f)
	if err != nil {
		return err
	}
	if err := rep.Err(); err != nil {
		for _, v := range rep.Violations {
			fmt.Fprintln(stderr, "  ", v)
		}
		return err
	}
	fmt.Fprintf(stdout, "replayed %d transactions from %s: all certified serializable\n", rep.Certified, *path)
	return nil
}
