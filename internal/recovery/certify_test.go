package recovery

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pushpull/internal/adt"
	"pushpull/internal/spec"
	"pushpull/internal/trace"
	"pushpull/internal/wal"
)

// CertifyByMachine is the certifier Certify's fold replaced, kept as a
// test-only reference: it replays the prefix, in stamp order, through a
// fresh trace.Recorder — a full Push/Pull machine running APP, PUSH,
// CMT and the commit-order check on every transaction. The fold must
// reach the same verdict on every history.
func CertifyByMachine(s State, reg *spec.Registry) error {
	rec := trace.NewRecorder(reg)
	for _, t := range s.Txns {
		ops := make([]trace.OpRecord, len(t.Ops))
		for i, op := range t.Ops {
			ops[i] = trace.OpRecord{Obj: op.Obj, Method: op.Method, Args: op.Args, Ret: op.Ret}
		}
		if rec.AtomicTxn(t.Name, ops) != nil {
			return fmt.Errorf("replay of txn %q (stamp %d) failed certification: %w", t.Name, t.Stamp, rec.Err())
		}
	}
	return rec.FinalCheck()
}

func memOpsReg() *spec.Registry {
	reg := spec.NewRegistry()
	reg.Register("mem", adt.Register{})
	reg.Register("ops", adt.TypedKV{})
	return reg
}

// randomHistory builds a small sequential mem/ops history from seed.
// Every op carries the return the specification gives it where it
// lands. mode 0 keeps the history valid; mode 1 also records ops the
// specification leaves undefined (overdraws, pops of empty queues,
// kind clashes); mode 2 bumps one recorded return.
func randomHistory(seed int64, mode uint8, reg *spec.Registry) State {
	rng := rand.New(rand.NewSource(seed))
	c := reg.InitState()
	var s State
	for tx, txns := 1, 1+rng.Intn(6); tx <= txns; tx++ {
		t := Txn{Tx: uint64(tx), Name: fmt.Sprintf("t%d", tx), Stamp: uint64(tx)}
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			op := spec.Op{ID: uint64(100*tx + i), Tx: uint64(tx), Seq: len(t.Ops)}
			k := int64(rng.Intn(3))
			switch rng.Intn(9) {
			case 0:
				op.Obj, op.Method, op.Args = "mem", adt.MRead, []int64{k}
			case 1:
				op.Obj, op.Method, op.Args = "mem", adt.MWrite, []int64{k, int64(rng.Intn(4))}
			case 2:
				op.Obj, op.Method, op.Args = "ops", adt.MOpsAdd, []int64{k, int64(rng.Intn(4))}
			case 3:
				op.Obj, op.Method, op.Args = "ops", adt.MOpsWd, []int64{k, int64(rng.Intn(4))}
			case 4:
				op.Obj, op.Method, op.Args = "ops", adt.MOpsGet, []int64{k}
			case 5:
				op.Obj, op.Method, op.Args = "ops", adt.MOpsCAS, []int64{k, int64(rng.Intn(3)), int64(rng.Intn(4))}
			case 6:
				op.Obj, op.Method, op.Args = "ops", adt.MOpsSAdd, []int64{k, int64(rng.Intn(2))}
			case 7:
				op.Obj, op.Method, op.Args = "ops", adt.MOpsQPush, []int64{k, int64(rng.Intn(4))}
			default:
				op.Obj, op.Method, op.Args = "ops", adt.MOpsQPop, []int64{k}
			}
			ret, ok := reg.EvalFrom(c, nil, op.Obj, op.Method, op.Args)
			if !ok && mode != 1 {
				continue
			}
			op.Ret = ret
			if next, ok := reg.ApplyOp(c, op); ok {
				c = next
			}
			t.Ops = append(t.Ops, op)
		}
		if len(t.Ops) > 0 {
			s.Txns = append(s.Txns, t)
		}
	}
	var all []*spec.Op
	for i := range s.Txns {
		for j := range s.Txns[i].Ops {
			all = append(all, &s.Txns[i].Ops[j])
		}
	}
	if mode == 2 && len(all) > 0 {
		all[rng.Intn(len(all))].Ret++
	}
	return s
}

// FuzzCertifyMatchesMachine: on small random mem/ops histories, valid
// and invalid alike, the fold and the machine replay agree.
func FuzzCertifyMatchesMachine(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		for mode := uint8(0); mode < 3; mode++ {
			f.Add(seed, mode)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		reg := memOpsReg()
		s := randomHistory(seed, mode%3, reg)
		fold, machine := Certify(s, reg), CertifyByMachine(s, reg)
		if (fold == nil) != (machine == nil) {
			t.Fatalf("verdicts differ on %+v:\nfold:    %v\nmachine: %v", s.Txns, fold, machine)
		}
	})
}

// TestCertifyNamesTheFailure: a refusal names the transaction, its
// stamp, the op and what the specification expected.
func TestCertifyNamesTheFailure(t *testing.T) {
	reg := memOpsReg()
	for _, tc := range []struct {
		op   spec.Op
		want string
	}{
		{spec.Op{Obj: "mem", Method: adt.MRead, Args: []int64{0}, Ret: 4}, "returns 5"},
		{spec.Op{Obj: "ops", Method: adt.MOpsWd, Args: []int64{1, 9}}, "undefined"},
		{spec.Op{Obj: "nope", Method: adt.MRead, Args: []int64{0}}, "undefined"},
	} {
		s := State{Txns: []Txn{
			{Tx: 1, Name: "a", Stamp: 3, Ops: []spec.Op{{Obj: "mem", Method: adt.MWrite, Args: []int64{0, 5}}}},
			{Tx: 2, Name: "b", Stamp: 7, Ops: []spec.Op{tc.op}},
		}}
		err := Certify(s, reg)
		if err == nil {
			t.Fatalf("%v certified", tc.op)
		}
		for _, frag := range []string{`txn "b"`, "stamp 7", tc.op.String(), tc.want} {
			if !strings.Contains(err.Error(), frag) {
				t.Fatalf("error %q does not name %q", err, frag)
			}
		}
		if CertifyByMachine(s, reg) == nil {
			t.Fatalf("the machine replay certified %v", tc.op)
		}
	}
}

// TestRecoverAndCertifyCarriesState: the certified state on the report
// is the denotation of the recovered prefix.
func TestRecoverAndCertifyCarriesState(t *testing.T) {
	image := seg(
		push(1, "a", 10, 0, adt.MWrite, []int64{3, 5}, 0),
		wal.Record{Type: wal.TCommit, Tx: 1, Name: "a", Stamp: 1},
		push(2, "b", 11, 0, adt.MWrite, []int64{3, 6}, 5),
		wal.Record{Type: wal.TCommit, Tx: 2, Name: "b", Stamp: 2},
	)
	rep, err := RecoverAndCertify([][]byte{image}, memReg())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := memReg().Denote(spec.Log{rep.State.Txns[0].Ops[0], rep.State.Txns[1].Ops[0]})
	if !rep.Certified.Eq(want) {
		t.Fatalf("certified %v, want %v", rep.Certified, want)
	}
}
