package trace_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pushpull/internal/adt"
	"pushpull/internal/recovery"
	"pushpull/internal/spec"
	"pushpull/internal/trace"
)

func reg() *spec.Registry {
	r := spec.NewRegistry()
	r.Register("mem", adt.Register{})
	r.Register("set", adt.Set{})
	r.Register("ops", adt.TypedKV{})
	return r
}

func TestAtomicTxnAcceptsCorrectRun(t *testing.T) {
	rec := trace.NewRecorder(reg())
	ok := rec.AtomicTxn("a", []trace.OpRecord{
		{Obj: "mem", Method: "write", Args: []int64{1, 5}, Ret: 0},
		{Obj: "mem", Method: "read", Args: []int64{1}, Ret: 5},
	}) == nil
	if !ok {
		t.Fatalf("correct txn rejected: %v", rec.Err())
	}
	// The second transaction observes the first's committed effects.
	ok = rec.AtomicTxn("b", []trace.OpRecord{
		{Obj: "mem", Method: "read", Args: []int64{1}, Ret: 5},
		{Obj: "mem", Method: "write", Args: []int64{1, 9}, Ret: 5},
	}) == nil
	if !ok {
		t.Fatalf("dependent-on-committed txn rejected: %v", rec.Err())
	}
	if err := rec.FinalCheck(); err != nil {
		t.Fatal(err)
	}
	if rec.Commits() != 2 {
		t.Fatalf("commits = %d", rec.Commits())
	}
}

// TestAtomicTxnCatchesWrongReturn: the certifier is the oracle — a
// substrate reporting a value the sequential specification contradicts
// must be flagged, not absorbed.
func TestAtomicTxnCatchesWrongReturn(t *testing.T) {
	rec := trace.NewRecorder(reg())
	if ok := rec.AtomicTxn("good", []trace.OpRecord{
		{Obj: "mem", Method: "write", Args: []int64{1, 5}, Ret: 0},
	}) == nil; !ok {
		t.Fatal(rec.Err())
	}
	// A "lost update" bug: the substrate claims it read 0 although 5 is
	// committed.
	if ok := rec.AtomicTxn("buggy", []trace.OpRecord{
		{Obj: "mem", Method: "read", Args: []int64{1}, Ret: 0},
	}) == nil; ok {
		t.Fatal("stale read certified!")
	}
	vs := rec.Violations()
	if len(vs) == 0 || !strings.Contains(vs[0].Error(), "return value mismatch") {
		t.Fatalf("violations = %v", vs)
	}
}

func TestAtomicTxnFuncAbortPath(t *testing.T) {
	rec := trace.NewRecorder(reg())
	called := false
	ok, refused := rec.AtomicTxnFunc("ro", func() ([]trace.OpRecord, bool) {
		called = true
		return nil, false // substrate aborted at the last moment
	})
	if ok || refused != nil || !called {
		t.Fatal("aborting prepare must not certify")
	}
	if len(rec.Violations()) != 0 {
		t.Fatal("an abort is not a violation")
	}
	if rec.Commits() != 0 {
		t.Fatal("nothing committed")
	}
}

func TestSessionLifecycle(t *testing.T) {
	rec := trace.NewRecorder(reg())
	s := rec.Begin("eager")
	if !s.Op("set", "add", []int64{1}, 1) {
		t.Fatal(rec.Err())
	}
	if !s.Op("set", "contains", []int64{1}, 1) {
		t.Fatal(rec.Err())
	}
	if !s.Commit() {
		t.Fatal(rec.Err())
	}
	// Idempotent commit.
	if !s.Commit() {
		t.Fatal("second commit must report the first outcome")
	}
	if err := rec.FinalCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionAbortRewinds(t *testing.T) {
	rec := trace.NewRecorder(reg())
	s := rec.Begin("aborter")
	if !s.Op("set", "add", []int64{7}, 1) {
		t.Fatal(rec.Err())
	}
	s.Abort()
	// The shared shadow state must not contain the aborted add.
	s2 := rec.Begin("observer")
	if !s2.Op("set", "contains", []int64{7}, 0) {
		t.Fatalf("aborted effect leaked: %v", rec.Err())
	}
	if !s2.Commit() {
		t.Fatal(rec.Err())
	}
	if err := rec.FinalCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionCatchesWrongEagerReturn(t *testing.T) {
	rec := trace.NewRecorder(reg())
	s1 := rec.Begin("w1")
	if !s1.Op("set", "add", []int64{1}, 1) {
		t.Fatal(rec.Err())
	}
	if !s1.Commit() {
		t.Fatal(rec.Err())
	}
	s2 := rec.Begin("w2")
	// Claiming add(1) inserted again contradicts the committed state.
	if s2.Op("set", "add", []int64{1}, 1) {
		t.Fatal("double-insert return certified!")
	}
	s2.Abort()
	if len(rec.Violations()) == 0 {
		t.Fatal("expected a violation")
	}
}

func TestDeferredOpsPublishAtCommit(t *testing.T) {
	rec := trace.NewRecorder(reg())
	s := rec.Begin("htmish")
	if !s.Op("set", "add", []int64{1}, 1) { // eager (boosted) op
		t.Fatal(rec.Err())
	}
	if !s.OpDeferred("mem", "write", []int64{0, 5}, 0) { // buffered op
		t.Fatal(rec.Err())
	}
	// The deferred write is invisible to a concurrent transaction.
	other := rec.Begin("reader")
	if !other.Op("mem", "read", []int64{0}, 0) {
		t.Fatalf("deferred op leaked: %v", rec.Err())
	}
	if !other.Commit() {
		t.Fatal(rec.Err())
	}
	if !s.Commit() { // publishes the deferred write, then CMT
		t.Fatal(rec.Err())
	}
	// Now it is visible.
	last := rec.Begin("after")
	if !last.Op("mem", "read", []int64{0}, 5) {
		t.Fatalf("committed deferred op invisible: %v", rec.Err())
	}
	if !last.Commit() {
		t.Fatal(rec.Err())
	}
	if err := rec.FinalCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestRewindDeferred(t *testing.T) {
	rec := trace.NewRecorder(reg())
	s := rec.Begin("fig7")
	if !s.Op("set", "add", []int64{1}, 1) {
		t.Fatal(rec.Err())
	}
	if !s.OpDeferred("mem", "write", []int64{0, 5}, 0) {
		t.Fatal(rec.Err())
	}
	if !s.OpDeferred("mem", "write", []int64{1, 6}, 0) {
		t.Fatal(rec.Err())
	}
	if n := s.RewindDeferred(); n != 2 {
		t.Fatalf("rewound %d, want 2 (stop at the pushed boosted op)", n)
	}
	// Re-apply down another path and commit.
	if !s.OpDeferred("mem", "write", []int64{2, 7}, 0) {
		t.Fatal(rec.Err())
	}
	if !s.Commit() {
		t.Fatal(rec.Err())
	}
	if err := rec.FinalCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionKeepsCertifying: every quiescent commit folds the whole
// window into the baseline, and the next commit still certifies against
// the folded state.
func TestCompactionKeepsCertifying(t *testing.T) {
	rec := trace.NewRecorder(reg())
	val := int64(0)
	for i := 0; i < 40; i++ {
		ok := rec.AtomicTxn("w", []trace.OpRecord{
			{Obj: "mem", Method: "read", Args: []int64{0}, Ret: val},
			{Obj: "mem", Method: "write", Args: []int64{0, val + 1}, Ret: val},
		}) == nil
		if !ok {
			t.Fatalf("iteration %d: %v", i, rec.Err())
		}
		if n := rec.Machine().GlobalLen(); n != 0 {
			t.Fatalf("iteration %d: %d live entries after a quiescent commit", i, n)
		}
		val++
	}
	if err := rec.FinalCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestFoldBoundaryCertificate: with the window folding after every
// commit, each injected violation is still caught against the state the
// previous fold left — live, and (for commit-time histories) again by
// recovery.Certify over the same history re-encoded as a WAL image.
func TestFoldBoundaryCertificate(t *testing.T) {
	w := func(k, v, old int64) trace.OpRecord {
		return trace.OpRecord{Obj: "mem", Method: "write", Args: []int64{k, v}, Ret: old}
	}
	r := func(k, v int64) trace.OpRecord {
		return trace.OpRecord{Obj: "mem", Method: "read", Args: []int64{k}, Ret: v}
	}
	for _, tc := range []struct {
		name string
		// txns is a commit-time history whose last transaction is bad.
		txns [][]trace.OpRecord
		// run drives a session history instead.
		run  func(t *testing.T, rec *trace.Recorder)
		want string // first violation; "" means the run must certify
	}{
		{name: "stale read of the just-folded write",
			txns: [][]trace.OpRecord{{w(1, 5, 0)}, {r(1, 0)}},
			want: "return value mismatch"},
		{name: "wrong return value",
			txns: [][]trace.OpRecord{{w(1, 5, 0)}, {w(1, 9, 5)}, {w(2, 1, 0), w(1, 3, 5)}},
			want: "return value mismatch"},
		{name: "partial-op overdraw",
			txns: [][]trace.OpRecord{
				{{Obj: "ops", Method: adt.MOpsAdd, Args: []int64{7, 5}}},
				{{Obj: "ops", Method: adt.MOpsWd, Args: []int64{7, 3}}},
				{{Obj: "ops", Method: adt.MOpsWd, Args: []int64{7, 3}}},
			},
			want: "shadow APP rejected"},
		{name: "eager PUSH against an open session's uncommitted push",
			run: func(t *testing.T, rec *trace.Recorder) {
				// Blind set ops return unit, so s2's srem is allowed after
				// s1's uncommitted sadd (iii) but cannot move left of it (ii).
				if rec.AtomicTxn("seed", []trace.OpRecord{{Obj: "ops", Method: adt.MOpsSAdd, Args: []int64{7, 2}}}) != nil {
					t.Fatal(rec.Err())
				}
				s1 := rec.Begin("s1")
				if !s1.Op("ops", adt.MOpsSAdd, []int64{7, 1}, 0) {
					t.Fatal(rec.Err())
				}
				s2 := rec.Begin("s2")
				if s2.Op("ops", adt.MOpsSRem, []int64{7, 1}, 0) {
					t.Fatal("non-commuting push past an uncommitted push certified")
				}
				s2.Abort()
				if !s1.Commit() {
					t.Fatal(rec.Err())
				}
			},
			want: "PUSH criterion (ii)"},
		{name: "open session trips the gate, drains and folds",
			run: func(t *testing.T, rec *trace.Recorder) {
				long := rec.Begin("long")
				if !long.Op("set", "add", []int64{100}, 1) {
					t.Fatal(rec.Err())
				}
				val := int64(0)
				for rec.Machine().GlobalLen() < 32 {
					if rec.AtomicTxn("w", []trace.OpRecord{r(0, val), w(0, val+1, val)}) != nil {
						t.Fatal(rec.Err())
					}
					val++
				}
				begun := make(chan *trace.Session)
				go func() { begun <- rec.Begin("parked") }()
				select {
				case <-begun:
					t.Fatal("Begin not parked past the high-water mark")
				case <-time.After(50 * time.Millisecond):
				}
				if !long.Commit() {
					t.Fatal(rec.Err())
				}
				parked := <-begun
				if n := rec.Machine().GlobalLen(); n != 0 {
					t.Fatalf("%d live entries after the drain", n)
				}
				if !parked.Op("mem", "read", []int64{0}, val) || !parked.Commit() {
					t.Fatal(rec.Err())
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := trace.NewRecorder(reg())
			var state recovery.State
			for i, ops := range tc.txns {
				name := fmt.Sprintf("t%d", i)
				ok := rec.AtomicTxn(name, ops) == nil
				if last := i == len(tc.txns)-1; ok == last {
					t.Fatalf("txn %d: certified=%v: %v", i, ok, rec.Err())
				}
				if n := rec.Machine().GlobalLen(); n != 0 {
					t.Fatalf("txn %d: %d live entries after a quiescent commit", i, n)
				}
				rt := recovery.Txn{Tx: uint64(i + 1), Name: name, Stamp: uint64(i + 1)}
				for _, o := range ops {
					rt.Ops = append(rt.Ops, spec.Op{Obj: o.Obj, Method: o.Method, Args: o.Args, Ret: o.Ret})
				}
				state.Txns = append(state.Txns, rt)
			}
			if tc.run != nil {
				tc.run(t, rec)
			}
			err := rec.FinalCheck()
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("FinalCheck = %v, want %q", err, tc.want)
			}
			if tc.txns == nil {
				return
			}
			if _, err := recovery.RecoverAndCertify(recovery.ReLog(state), reg()); err == nil {
				t.Fatal("recovery certified the bad history")
			}
			good := recovery.State{Txns: state.Txns[:len(state.Txns)-1]}
			if _, err := recovery.RecoverAndCertify(recovery.ReLog(good), reg()); err != nil {
				t.Fatalf("recovery refused the good prefix: %v", err)
			}
		})
	}
}

// TestViolationsBounded refuses 10k commits: the count stays exact,
// the first violation is kept, the retained list stays bounded, and
// every refused commit gets its own violation back.
func TestViolationsBounded(t *testing.T) {
	rec := trace.NewRecorder(reg())
	if err := rec.AtomicTxn("seed", []trace.OpRecord{
		{Obj: "mem", Method: "write", Args: []int64{1, 5}, Ret: 0},
	}); err != nil {
		t.Fatal(err)
	}
	const n = 10000
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("bad%d", i)
		err := rec.AtomicTxn(name, []trace.OpRecord{
			{Obj: "mem", Method: "read", Args: []int64{1}, Ret: int64(i + 6)},
		})
		var v trace.Violation
		if !errors.As(err, &v) || v.Txn != name {
			t.Fatalf("commit %s refused with %v, want its own violation", name, err)
		}
	}
	if got := rec.ViolationCount(); got != n {
		t.Fatalf("ViolationCount = %d, want %d", got, n)
	}
	vs := rec.Violations()
	if len(vs) > 100 {
		t.Fatalf("%d violations retained after %d refusals: the list is unbounded", len(vs), n)
	}
	if vs[0].Txn != "bad0" || vs[len(vs)-1].Txn != fmt.Sprintf("bad%d", n-1) {
		t.Fatalf("retained violations run %q..%q, want bad0..bad%d", vs[0].Txn, vs[len(vs)-1].Txn, n-1)
	}
	first := vs[0].Err.Error()
	for _, err := range []error{rec.Err(), rec.FinalCheck()} {
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d violations; first: %s", n, first)) {
			t.Fatalf("verdict %v does not name the count and the first violation %q", err, first)
		}
	}
}
