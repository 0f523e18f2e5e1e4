package pushpull_test

import (
	"strings"
	"testing"

	"pushpull"
)

// The facade tests exercise the public API end to end — what a
// downstream user of the library sees.

func TestFacadeQuickstartFlow(t *testing.T) {
	reg := pushpull.StandardRegistry()
	m := pushpull.NewMachine(reg, pushpull.DefaultOptions())
	th := m.Spawn("t1")
	txn, err := pushpull.ParseTxn(`tx q { ht.put(1, 10); v := ht.get(1); }`)
	if err != nil {
		t.Fatal(err)
	}
	if errs := pushpull.Validate(reg, txn); len(errs) != 0 {
		t.Fatalf("validate: %v", errs)
	}
	if err := m.Begin(th, txn, nil); err != nil {
		t.Fatal(err)
	}
	for {
		steps := m.Steps(th)
		if len(steps) == 0 {
			break
		}
		if _, err := m.App(th, steps[0]); err != nil {
			t.Fatal(err)
		}
		if err := m.Push(th, len(th.Local)-1); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := m.Commit(th)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stamp != 1 || len(rec.Ops) != 2 {
		t.Fatalf("record %+v", rec)
	}
	rep := pushpull.CheckCommitOrder(m)
	if !rep.Serializable {
		t.Fatal(rep)
	}
}

func TestFacadeAtomicMachine(t *testing.T) {
	reg := pushpull.StandardRegistry()
	txn := pushpull.MustParseTxn(`tx a { ctr.inc(); v := ctr.get(); }`)
	res, ok := pushpull.RunAtomic(reg, txn, nil, nil)
	if !ok || res.Stack["v"] != 1 {
		t.Fatalf("atomic run: ok=%v stack=%v", ok, res.Stack)
	}
}

func TestFacadeDriversAndSchedulers(t *testing.T) {
	reg := pushpull.StandardRegistry()
	m := pushpull.NewMachine(reg, pushpull.DefaultOptions())
	env := pushpull.NewEnv()
	mk := []struct {
		name string
		f    func(string, *pushpull.Thread, []pushpull.Txn, pushpull.DriverConfig, *pushpull.Env) pushpull.Driver
	}{
		{"opt", pushpull.NewOptimistic},
		{"boost", pushpull.NewBoosting},
		{"ms", pushpull.NewMatveevShavit},
		{"dep", pushpull.NewDependent},
	}
	var ds []pushpull.Driver
	for i, k := range mk {
		th := m.Spawn(k.name)
		txn := pushpull.MustParseTxn(`tx ` + k.name + ` { set.add(` + string(rune('1'+i)) + `); }`)
		ds = append(ds, k.f(k.name, th, []pushpull.Txn{txn}, pushpull.DriverConfig{}, env))
	}
	if err := pushpull.RunRoundRobin(m, ds, 5, 50000); err != nil {
		t.Fatal(err)
	}
	rep := pushpull.CheckCommitOrder(m)
	if !rep.Serializable || len(rep.CommitOrder) != 4 {
		t.Fatal(rep)
	}
}

func TestFacadeRecorder(t *testing.T) {
	reg := pushpull.StandardRegistry()
	rec := pushpull.NewRecorder(reg)
	if err := rec.AtomicTxn("w", []pushpull.OpRecord{
		{Obj: "mem", Method: "write", Args: []int64{0, 7}, Ret: 0},
	}); err != nil {
		t.Fatal(err)
	}
	if err := rec.FinalCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDump(t *testing.T) {
	reg := pushpull.StandardRegistry()
	m := pushpull.NewMachine(reg, pushpull.DefaultOptions())
	th := m.Spawn("t1")
	if err := m.Begin(th, pushpull.MustParseTxn(`tx a { set.add(1); ctr.inc(); }`), nil); err != nil {
		t.Fatal(err)
	}
	steps := m.Steps(th)
	if _, err := m.App(th, steps[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.Push(th, 0); err != nil {
		t.Fatal(err)
	}
	out := m.Dump()
	for _, frag := range []string{"thread 1", "in-tx", "pshd", "gUCmt", "denoted state"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("dump missing %q:\n%s", frag, out)
		}
	}
}

func TestFacadeOpaqueOption(t *testing.T) {
	reg := pushpull.StandardRegistry()
	opts := pushpull.DefaultOptions()
	opts.OpaqueFragment = true
	m := pushpull.NewMachine(reg, opts)
	t1, t2 := m.Spawn("t1"), m.Spawn("t2")
	if err := m.Begin(t1, pushpull.MustParseTxn(`tx a { ctr.inc(); }`), nil); err != nil {
		t.Fatal(err)
	}
	steps := m.Steps(t1)
	if _, err := m.App(t1, steps[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.Push(t1, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(t2, pushpull.MustParseTxn(`tx b { v := ctr.get(); }`), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Pull(t2, 0); err == nil {
		t.Fatal("opaque machine must reject the uncommitted pull")
	}
}
