package wal_test

import (
	"testing"

	"pushpull/internal/chaos"
	"pushpull/internal/recovery"
	"pushpull/internal/spec"
	"pushpull/internal/wal"
)

// TestCleanCrashStopsInsideTransaction: a clean crash keeps the synced
// prefix plus a plan-chosen count of whole unsynced records, so a plan
// can put the durable point between a transaction's PUSHes and its CMT
// — and recovery must discard that pushed-but-uncommitted suffix while
// keeping every transaction whose barrier ran.
func TestCleanCrashStopsInsideTransaction(t *testing.T) {
	push := func(tx, id uint64, k int64) wal.Record {
		return wal.Record{Type: wal.TPush, Tx: tx, Name: "t",
			Op: spec.Op{ID: id, Tx: tx, Obj: "mem", Method: "write", Args: []int64{k, 1}}}
	}
	inside := 0
	for seed := int64(1); seed <= 32; seed++ {
		// t1 commits behind a barrier; t2 pushes three ops and dies at
		// the append of its CMT (the 6th append).
		plan := chaos.NewPlan(seed).WithCrash(6, chaos.CrashClean)
		l := wal.MustOpen(wal.Options{Chaos: plan.Injector()})
		l.Append(push(1, 1, 0))
		l.Append(wal.Record{Type: wal.TCommit, Tx: 1, Name: "t1", Stamp: 1})
		if err := l.CommitBarrier(); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 3; i++ {
			l.Append(push(2, 10+i, int64(i)))
		}
		if err := l.Append(wal.Record{Type: wal.TCommit, Tx: 2, Name: "t2", Stamp: 2}); err != wal.ErrCrashed {
			t.Fatalf("seed %d: CMT append survived the crash point: %v", seed, err)
		}
		segs := l.Segments()
		recs, _, reason := wal.DecodeAll(segs[0][wal.SegHeaderLen:])
		if reason != nil {
			t.Fatalf("seed %d: clean crash left a torn tail: %v", seed, reason)
		}
		kept := len(recs) - 2 // t2's PUSHes past the synced prefix
		if kept < 0 || kept > 3 {
			t.Fatalf("seed %d: image holds %d records, want 2..5", seed, len(recs))
		}
		rep := recovery.Recover(segs)
		if len(rep.State.Txns) != 1 || rep.State.Txns[0].Name != "t1" {
			t.Fatalf("seed %d: recovered %+v, want exactly t1", seed, rep.State.Txns)
		}
		want := 0
		if kept > 0 {
			want = 1
			inside++
		}
		if rep.Discarded != want {
			t.Fatalf("seed %d: %d of t2's pushes survived, recovery discarded %d txns, want %d",
				seed, kept, rep.Discarded, want)
		}
	}
	if inside == 0 {
		t.Fatal("no plan put the durable point inside t2: clean crashes never stop mid-transaction")
	}
}
