package ops_test

import (
	"testing"

	"pushpull/internal/adt"
	"pushpull/internal/ops"
	"pushpull/internal/spec"
)

// TestCodeNames pins the one enum's surface: every code's String is its
// registry name and resolves back through ByName (the JSON mirror and
// -op-mix parse by it), Typed splits exactly at Add, and a value past
// the table stays printable and unresolvable — what keeps the wire
// decoder's unknown-kind path an error rather than a panic.
func TestCodeNames(t *testing.T) {
	for c := ops.Code(0); c < ops.NumCodes; c++ {
		d, ok := ops.ByName(c.String())
		if !ok || d.Code != c {
			t.Errorf("code %d: ByName(%q) = (%d, %v)", c, c.String(), d.Code, ok)
		}
		if c.Typed() != (c >= ops.Add) {
			t.Errorf("code %d (%s): Typed() = %v", c, c, c.Typed())
		}
	}
	past := ops.Code(ops.NumCodes)
	if _, ok := ops.ByCode(past); ok || past.Typed() || past.String() != "op(11)" {
		t.Errorf("code past the table: ByCode ok=%v Typed=%v String=%q", ok, past.Typed(), past.String())
	}
}

func mustDesc(t *testing.T, c ops.Code) ops.Desc {
	t.Helper()
	d, ok := ops.ByCode(c)
	if !ok {
		t.Fatalf("no descriptor for code %d", c)
	}
	return d
}

// TestOpsClassesMatchOracle pins the registry's commute classes against
// the TypedKV mover oracle, in the direction that matters for
// soundness: a class SHARE must be backed by an oracle commute
// judgment on worst-case instances (same key, same member/payload). A
// class may be more conservative than the oracle — qpush/qpush of the
// same value commutes but stays exclusive, because the class is a
// per-key ticket and cannot see payloads. The escrow-guarded wd/add
// pairing is the one deliberate deviation: the oracle calls it
// conditional at the balance boundary, and the runtime admits the
// share because the escrow guard re-checks the boundary at execution
// time.
func TestOpsClassesMatchOracle(t *testing.T) {
	oracle := ops.Oracle()
	mk := func(d ops.Desc) spec.Op {
		args := []int64{7}
		for i := 0; i < d.Args; i++ {
			args = append(args, 1) // same payload: the worst case for a share
		}
		return spec.Op{Obj: ops.Obj, Method: d.Method, Args: args}
	}
	for _, d1 := range ops.Table() {
		if d1.Method == "" {
			continue // get/put certify against the map object, not ops
		}
		for _, d2 := range ops.Table() {
			if d2.Method == "" {
				continue
			}
			share := d1.Class != ops.ClassExclusive && d1.Class == d2.Class
			if !share {
				continue
			}
			escrow := d1.Code == ops.Wd || d2.Code == ops.Wd
			lm, known := oracle.LeftMover(mk(d1), mk(d2))
			rm, known2 := oracle.LeftMover(mk(d2), mk(d1))
			if !(known && known2 && lm && rm) && !escrow {
				t.Errorf("%s vs %s share class %q but the oracle does not commute them",
					d1.Name, d2.Name, d1.Class)
			}
		}
	}

	// The always-commute fragment must actually share, and the
	// order-observing controls must not.
	class := func(c ops.Code) string { return mustDesc(t, c).Class }
	for _, c := range []ops.Code{ops.Add, ops.SAdd, ops.SRem, ops.CGet, ops.SCont} {
		if class(c) == ops.ClassExclusive {
			t.Errorf("%s: always-commutes with itself but declared exclusive", mustDesc(t, c).Name)
		}
	}
	for _, c := range []ops.Code{ops.CAS, ops.QPush, ops.QPop} {
		if class(c) != ops.ClassExclusive {
			t.Errorf("%s: order-observing but declared class %q", mustDesc(t, c).Name, class(c))
		}
	}
	if class(ops.Add) == class(ops.CGet) {
		t.Error("incr and cget share a class: a counter read must conflict with concurrent arithmetic")
	}
	if class(ops.SAdd) == class(ops.SRem) {
		t.Error("sadd and srem share a class: insert and remove of one member do not commute")
	}
	if class(ops.Wd) != class(ops.Add) {
		t.Error("wd must ride the add class (escrow-guarded arithmetic)")
	}
}

// TestInvertRoundTrip checks the spec-level inverse of every invertible
// operation actually rewinds it: apply op then its inverse and land in
// a state observationally equal to the start (counter reads agree).
func TestInvertRoundTrip(t *testing.T) {
	obj := adt.TypedKV{}
	s0 := obj.Init()
	// Build a state with some balance so wd is defined.
	s1, _, ok := obj.Apply(s0, adt.MOpsAdd, []int64{7, 10})
	if !ok {
		t.Fatal("seed add undefined")
	}
	for _, tc := range []struct {
		method string
		args   []int64
	}{
		{adt.MOpsAdd, []int64{7, 3}},
		{adt.MOpsWd, []int64{7, 4}},
		{adt.MOpsCAS, []int64{7, 10, 99}},
	} {
		s2, ret, ok := obj.Apply(s1, tc.method, tc.args)
		if !ok {
			t.Fatalf("%s%v undefined", tc.method, tc.args)
		}
		inv, invArgs, ok := ops.Invert(spec.Op{Obj: ops.Obj, Method: tc.method, Args: tc.args, Ret: ret})
		if !ok {
			t.Fatalf("%s has no inverse", tc.method)
		}
		s3, _, ok := obj.Apply(s2, inv, invArgs)
		if !ok {
			t.Fatalf("inverse %s%v undefined", inv, invArgs)
		}
		_, v0, _ := obj.Apply(s1, adt.MOpsGet, []int64{7})
		_, v3, _ := obj.Apply(s3, adt.MOpsGet, []int64{7})
		if v0 != v3 {
			t.Errorf("%s%v: inverse landed at %d, want %d", tc.method, tc.args, v3, v0)
		}
	}
	// Blind set mutators and queue ops declare no syntactic inverse.
	for _, m := range []string{adt.MOpsSAdd, adt.MOpsSRem, adt.MOpsQPush, adt.MOpsQPop} {
		if _, _, ok := ops.Invert(spec.Op{Obj: ops.Obj, Method: m, Args: []int64{7, 1}, Ret: 0}); ok {
			t.Errorf("%s: unexpected syntactic inverse (runtime uses undo closures)", m)
		}
	}
}

// TestEffectResolution pins the journal effects: wd journals its
// negation as an add, a cas journals the absolute it installed (or
// nothing when it did not), reads journal nothing, qpop refuses.
func TestEffectResolution(t *testing.T) {
	for _, tc := range []struct {
		code      ops.Code
		a, b, ret int64
		m         ops.WireMethod
		val       int64
		write, ok bool
	}{
		{code: ops.Put, a: 5, m: ops.WPut, val: 5, write: true, ok: true},
		{code: ops.Add, a: 3, m: ops.WAdd, val: 3, write: true, ok: true},
		{code: ops.Wd, a: 4, m: ops.WAdd, val: -4, write: true, ok: true},
		{code: ops.CAS, a: 10, b: 99, ret: 10, m: ops.WPut, val: 99, write: true, ok: true},
		{code: ops.CAS, a: 10, b: 99, ret: 7, write: false, ok: true},
		{code: ops.SAdd, a: 1, m: ops.WSAdd, val: 1, write: true, ok: true},
		{code: ops.SRem, a: 1, m: ops.WSRem, val: 1, write: true, ok: true},
		{code: ops.QPush, a: 9, m: ops.WQPush, val: 9, write: true, ok: true},
		{code: ops.Get, write: false, ok: true},
		{code: ops.CGet, write: false, ok: true},
		{code: ops.SCont, a: 1, write: false, ok: true},
		{code: ops.QPop, write: false, ok: false},
	} {
		m, val, write, ok := ops.Effect(tc.code, tc.a, tc.b, tc.ret)
		if write != tc.write || ok != tc.ok || (write && (m != tc.m || val != tc.val)) {
			t.Errorf("Effect(%v, %d, %d, ret=%d) = (%v, %d, %v, %v), want (%v, %d, %v, %v)",
				tc.code, tc.a, tc.b, tc.ret, m, val, write, ok, tc.m, tc.val, tc.write, tc.ok)
		}
		if write {
			// The journaled method must map back to an op that re-applies it.
			if got := m.Code(); got != ops.Put && got != ops.Add && got != ops.SAdd && got != ops.SRem && got != ops.QPush {
				t.Errorf("WireMethod(%d).Code() = %v: not a roll-forward op", m, got)
			}
		}
	}
}
