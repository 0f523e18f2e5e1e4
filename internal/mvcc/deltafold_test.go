package mvcc

import (
	"testing"

	"pushpull/internal/adt"
	"pushpull/internal/ops"
	"pushpull/internal/spec"
)

// TestTranslateTypedOps pins the typed-op projection onto the
// version-store write-set: arithmetic folds as namespaced deltas, an
// installed cas as a namespaced absolute, a refused cas and every
// set/queue method (no snapshot surface) to nothing.
func TestTranslateTypedOps(t *testing.T) {
	mk := func(method string, ret int64, args ...int64) spec.Op {
		return spec.Op{Obj: ops.Obj, Method: method, Args: args, Ret: ret}
	}
	for _, tc := range []struct {
		name string
		op   spec.Op
		want write
		ok   bool
	}{
		{"add folds as delta", mk(adt.MOpsAdd, 0, 7, 5),
			write{key: ops.KeyBit | 7, val: 5, present: true, delta: true}, true},
		{"wd folds as negative delta", mk(adt.MOpsWd, 0, 7, 3),
			write{key: ops.KeyBit | 7, val: -3, present: true, delta: true}, true},
		{"installed cas folds absolute", mk(adt.MOpsCAS, 10, 7, 10, 99),
			write{key: ops.KeyBit | 7, val: 99, present: true}, true},
		{"refused cas folds to nothing", mk(adt.MOpsCAS, 4, 7, 10, 99), write{}, false},
		{"cget folds to nothing", mk(adt.MOpsGet, 12, 7), write{}, false},
		{"sadd folds to nothing", mk(adt.MOpsSAdd, 0, 7, 1), write{}, false},
		{"qpush folds to nothing", mk(adt.MOpsQPush, 0, 7, 1), write{}, false},
	} {
		got, ok := translate(ModeMap, tc.op)
		if ok != tc.ok || got != tc.want {
			t.Errorf("%s: translate = (%+v, %v), want (%+v, %v)",
				tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

// TestDeltaFoldResolve pins the commit-order delta resolution: deltas
// accumulate into running absolutes, an absolute write into the typed
// namespace (an installed cas) resets the running total, and writes
// outside the namespace pass through untouched.
func TestDeltaFoldResolve(t *testing.T) {
	k := ops.KeyBit | 7
	f := NewStore(ModeMap, 0)
	steps := []struct {
		in      write
		wantVal int64
	}{
		{write{key: k, val: 5, present: true, delta: true}, 5},
		{write{key: k, val: 3, present: true, delta: true}, 8},
		{write{key: k, val: -2, present: true, delta: true}, 6},
		{write{key: k, val: 100, present: true}, 100}, // cas reset
		{write{key: k, val: 1, present: true, delta: true}, 101},
		{write{key: 7, val: 42, present: true}, 42}, // plain map key: untouched
	}
	for i, st := range steps {
		ws := []write{st.in}
		f.resolveLocked(ws)
		if ws[0].delta {
			t.Fatalf("step %d: delta survived resolution", i)
		}
		if ws[0].val != st.wantVal {
			t.Fatalf("step %d: resolved to %d, want %d", i, ws[0].val, st.wantVal)
		}
	}

	// Independent folds on independent keys, resolved in one batch.
	g := NewStore(ModeMap, 0)
	batch := []write{
		{key: ops.KeyBit | 1, val: 4, present: true, delta: true},
		{key: ops.KeyBit | 2, val: 9, present: true, delta: true},
		{key: ops.KeyBit | 1, val: 4, present: true, delta: true},
	}
	g.resolveLocked(batch)
	if batch[0].val != 4 || batch[1].val != 9 || batch[2].val != 8 {
		t.Fatalf("batch resolved to %v", batch)
	}
}
