package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"pushpull"
	"pushpull/internal/bench"
	"pushpull/internal/strategy"
)

// The trace subcommand runs transactions on the Push/Pull machine and
// prints their rule decomposition — the Figure 2 / Figure 7 view of an
// execution — followed by the serializability report.
//
//	pushpull-check trace -demo fig2          # the boosted hashtable of Figure 2
//	pushpull-check trace -demo fig7          # the boosting/HTM interaction of Section 7
//	pushpull-check trace -strategy boosting -f prog.txt -seed 3
//
// A program file contains transactions in the surface syntax, e.g.
//
//	tx a { v := ht.get(1); if v == absent { ht.put(1, 10); } }
//	tx b { set.add(2); ctr.inc(); }
//
// Each transaction runs on its own thread under the chosen §6 strategy
// (optimistic | partialabort | boosting | matveev | dependent),
// interleaved by a seeded random scheduler. Objects available: mem
// (register), set, ht (map), ctr (counter), q (queue).

func traceCmd(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	demo := fs.String("demo", "", "built-in demo: fig2 | fig7")
	file := fs.String("f", "", "program file (one or more tx blocks)")
	strat := fs.String("strategy", "boosting", "driver strategy for -f programs")
	seed := fs.Int64("seed", 1, "scheduler seed")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	var (
		m   *pushpull.Machine
		err error
	)
	switch {
	case *demo == "fig2":
		m, err = runFig2()
	case *demo == "fig7":
		m, err = runFig7()
	case *demo == "" && *file != "":
		m, err = runFile(*file, *strat, *seed)
	default:
		fmt.Fprintln(stderr, "pushpull-check trace: need -demo fig2|fig7 or -f <program>")
		fs.Usage()
		return errUsage
	}
	if err != nil {
		return err
	}
	report(stdout, m)
	return nil
}

func report(w io.Writer, m *pushpull.Machine) {
	fmt.Fprintln(w, "--- rule decomposition ---")
	fmt.Fprint(w, m.RuleSequence())
	fmt.Fprintln(w, "--- verdicts ---")
	fmt.Fprintln(w, pushpull.CheckCommitOrder(m))
	if v := pushpull.CheckOpacity(m.Events()); len(v) == 0 {
		fmt.Fprintln(w, "opaque: yes (no uncommitted pulls)")
	} else {
		fmt.Fprintf(w, "opaque: no (%d uncommitted pulls)\n", len(v))
		for _, x := range v {
			fmt.Fprintln(w, "  ", x)
		}
	}
}

func runFig2() (*pushpull.Machine, error) {
	reg := pushpull.StandardRegistry()
	m := pushpull.NewMachine(reg, pushpull.DefaultOptions())
	th := m.Spawn("booster")
	txn := pushpull.MustParseTxn(`tx boostedPut { v := ht.get(5); ht.put(5, 10); }`)
	if err := m.Begin(th, txn, nil); err != nil {
		return nil, err
	}
	for {
		steps := m.Steps(th)
		if len(steps) == 0 {
			break
		}
		if _, err := m.App(th, steps[0]); err != nil {
			return nil, err
		}
		if err := m.Push(th, len(th.Local)-1); err != nil {
			return nil, err
		}
	}
	_, err := m.Commit(th)
	return m, err
}

func runFig7() (*pushpull.Machine, error) {
	// The Figure 7 object set lives in the standard registry under
	// different names; drive the exact sequence from the test suite's
	// scenario using ctr for size/x/y-style counters.
	reg := pushpull.StandardRegistry()
	m := pushpull.NewMachine(reg, pushpull.DefaultOptions())
	th := m.Spawn("s7")
	txn := pushpull.MustParseTxn(`
tx s7 {
  set.add(7);
  ctr.inc();
  ht.put(7, 70);
  choice { mem.write(1, 1); } or { mem.write(2, 1); }
}`)
	// The script below is straight-line: the first rule that fails
	// sticks in err and every later step is skipped.
	err := m.Begin(th, txn, nil)
	appObj := func(obj string) {
		if err != nil {
			return
		}
		for _, s := range m.Steps(th) {
			if s.Call.Obj == obj {
				_, err = m.App(th, s)
				return
			}
		}
		err = fmt.Errorf("no step on %s", obj)
	}
	step := func(rule func() error) {
		if err == nil {
			err = rule()
		}
	}
	push := func(i int) { step(func() error { return m.Push(th, i) }) }
	appObj("set")
	push(0) // boosted insert published immediately
	appObj("ctr")
	appObj("ht")
	push(2) // boosted map published immediately
	appObj("mem")
	push(1) // "Push HTM ops": ctr.inc
	push(3) // ... and the x-branch write
	// "HTM signals abort"
	step(func() error { return m.Unpush(th, 3) })
	step(func() error { return m.Unpush(th, 1) })
	step(func() error { return m.Unapp(th) })
	// "March forward again" down the y branch.
	appObj("mem")
	push(1)
	push(3)
	step(func() error { _, err := m.Commit(th); return err })
	return m, err
}

func runFile(path, strat string, seed int64) (*pushpull.Machine, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	txns, err := pushpull.ParseProgram(string(src))
	if err != nil {
		return nil, err
	}
	reg := pushpull.StandardRegistry()
	var invalid []error
	for _, e := range pushpull.ValidateProgram(reg, txns) {
		invalid = append(invalid, e)
	}
	if err := errors.Join(invalid...); err != nil {
		return nil, err
	}
	m := pushpull.NewMachine(reg, pushpull.DefaultOptions())
	env := pushpull.NewEnv()
	var drivers []pushpull.Driver
	for i, txn := range txns {
		th := m.Spawn(fmt.Sprintf("t%d", i+1))
		d, err := bench.NewDriver(strat, th, []pushpull.Txn{txn}, strategy.Config{}, env)
		if err != nil {
			return nil, err
		}
		drivers = append(drivers, d)
	}
	return m, pushpull.RunRandom(m, drivers, seed, 200000)
}
