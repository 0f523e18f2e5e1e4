package wal

import (
	"bytes"
	"errors"
	"testing"

	"pushpull/internal/chaos"
	"pushpull/internal/spec"
)

func pushRec(tx uint64, name string, id uint64, seq int, obj, method string, args []int64, ret int64) Record {
	return Record{Type: TPush, Tx: tx, Name: name,
		Op: spec.Op{ID: id, Tx: tx, Seq: seq, Obj: obj, Method: method, Args: args, Ret: ret}}
}

func sampleRecords() []Record {
	return []Record{
		pushRec(1, "t1", 10, 0, "mem", "write", []int64{3, 7}, 0),
		pushRec(1, "t1", 11, 1, "mem", "read", []int64{3}, 7),
		{Type: TCommit, Tx: 1, Name: "t1", Stamp: 1},
		pushRec(2, "t2", 12, 0, "ht", "put", []int64{5, -9}, spec.Absent),
		{Type: TUnpush, Tx: 2, OpID: 12},
		{Type: TAbort, Tx: 2, Name: "t2"},
		{Type: TSession, Tx: 3, Session: 42, SeqNo: 7, Name: "s42.7",
			Results: []SessResult{{Val: -5, Found: true}, {}}},
	}
}

func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Type != w.Type || g.Tx != w.Tx || g.Name != w.Name ||
			g.OpID != w.OpID || g.Stamp != w.Stamp || g.String() != w.String() {
			t.Fatalf("record %d: got %v, want %v", i, g, w)
		}
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	var body []byte
	want := sampleRecords()
	for _, r := range want {
		body = Encode(body, r)
	}
	got, consumed, reason := DecodeAll(body)
	if reason != nil {
		t.Fatalf("clean body truncated: %v", reason)
	}
	if consumed != len(body) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(body))
	}
	sameRecords(t, got, want)
}

func TestSessionRecordRoundtrip(t *testing.T) {
	want := Record{Type: TSession, Tx: 9, Session: 1 << 40, SeqNo: 3, Name: "s.3",
		Results: []SessResult{{Val: 11, Found: true}, {Val: -2}, {}}}
	got, consumed, reason := DecodeAll(Encode(nil, want))
	if reason != nil || len(got) != 1 {
		t.Fatalf("decode: %d records, reason %v", len(got), reason)
	}
	if consumed == 0 {
		t.Fatal("nothing consumed")
	}
	g := got[0]
	if g.Session != want.Session || g.SeqNo != want.SeqNo || g.Name != want.Name {
		t.Fatalf("got %v, want %v", g, want)
	}
	if len(g.Results) != len(want.Results) {
		t.Fatalf("got %d results, want %d", len(g.Results), len(want.Results))
	}
	for i, r := range want.Results {
		if g.Results[i] != r {
			t.Fatalf("result %d: got %+v, want %+v", i, g.Results[i], r)
		}
	}
}

func TestDecodeTruncatesTornTail(t *testing.T) {
	var body []byte
	for _, r := range sampleRecords() {
		body = Encode(body, r)
	}
	for cut := 1; cut < len(body); cut++ {
		recs, consumed, reason := DecodeAll(body[:len(body)-cut])
		if consumed > len(body)-cut {
			t.Fatalf("cut %d: consumed past the data", cut)
		}
		// The decoded prefix must itself decode cleanly (valid prefix +
		// truncation point, never garbage records).
		again, c2, r2 := DecodeAll(body[:consumed])
		if r2 != nil || c2 != consumed {
			t.Fatalf("cut %d: prefix not clean: %v", cut, r2)
		}
		sameRecords(t, again, recs)
		if consumed < len(body)-cut && reason == nil {
			t.Fatalf("cut %d: dangling bytes with no truncation reason", cut)
		}
	}
}

func TestDecodeTruncatesBitflip(t *testing.T) {
	var body []byte
	for _, r := range sampleRecords() {
		body = Encode(body, r)
	}
	clean, _, _ := DecodeAll(body)
	for bit := 0; bit < len(body)*8; bit += 7 {
		mut := append([]byte(nil), body...)
		mut[bit/8] ^= 1 << (bit % 8)
		recs, consumed, _ := DecodeAll(mut)
		if consumed > len(mut) {
			t.Fatalf("bit %d: consumed past the data", bit)
		}
		if len(recs) > len(clean) {
			t.Fatalf("bit %d: decoded %d records from corrupt input, clean has %d",
				bit, len(recs), len(clean))
		}
	}
}

func TestSegmentRotationAndSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncOnCommit, SyncNever} {
		l := MustOpen(Options{SegmentBytes: 256, Policy: pol})
		var want []Record
		for i := 0; i < 40; i++ {
			r := pushRec(uint64(i), "t", uint64(100+i), 0, "mem", "write", []int64{int64(i), 1}, 0)
			want = append(want, r)
			if err := l.Append(r); err != nil {
				t.Fatalf("%v append: %v", pol, err)
			}
			c := Record{Type: TCommit, Tx: uint64(i), Name: "t", Stamp: uint64(i + 1)}
			want = append(want, c)
			if err := l.Append(c); err != nil {
				t.Fatalf("%v append: %v", pol, err)
			}
			if err := l.CommitBarrier(); err != nil {
				t.Fatalf("%v barrier: %v", pol, err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatalf("%v close: %v", pol, err)
		}
		st := l.Stats()
		if st.Segments < 2 {
			t.Fatalf("%v: expected rotation, got %d segment(s)", pol, st.Segments)
		}
		var got []Record
		for _, seg := range l.Segments() {
			if _, err := CheckSegmentHeader(seg); err != nil {
				t.Fatalf("%v header: %v", pol, err)
			}
			recs, _, reason := DecodeAll(seg[SegHeaderLen:])
			if reason != nil {
				t.Fatalf("%v: closed log has a torn tail: %v", pol, reason)
			}
			got = append(got, recs...)
		}
		sameRecords(t, got, want)
	}
}

func TestFileBackedMatchesMemory(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	mem := l.Segments()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	disk, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(disk) != len(mem) {
		t.Fatalf("disk has %d segments, memory %d", len(disk), len(mem))
	}
	for i := range mem {
		if !bytes.Equal(disk[i], mem[i]) {
			t.Fatalf("segment %d: disk and memory images differ", i)
		}
	}
}

func TestCrashLosesUnsyncedSuffix(t *testing.T) {
	// Crash at the 6th append under SyncNever: nothing past the header
	// is synced, so the surviving image is the plan's choice of whole
	// unsynced records — a clean prefix of the five completed appends,
	// never the in-flight sixth.
	plan := chaos.NewPlan(42).WithCrash(6, chaos.CrashClean)
	l := MustOpen(Options{Policy: SyncNever, Chaos: plan.Injector()})
	var lastErr error
	var want []Record
	for i := 0; i < 10; i++ {
		r := pushRec(1, "t", uint64(i+1), i, "mem", "read", []int64{0}, 0)
		if i < 5 {
			want = append(want, r)
		}
		lastErr = l.Append(r)
		if err := l.CommitBarrier(); err != nil {
			t.Fatal(err)
		}
	}
	if !errors.Is(lastErr, ErrCrashed) {
		t.Fatalf("appends after the crash point: %v", lastErr)
	}
	if !l.Crashed() {
		t.Fatal("log not crashed")
	}
	segs := l.Segments()
	recs, _, reason := DecodeAll(segs[len(segs)-1][SegHeaderLen:])
	if reason != nil || len(recs) > 5 {
		t.Fatalf("SyncNever clean crash survived %d records (reason %v)", len(recs), reason)
	}
	sameRecords(t, recs, want[:len(recs)])

	// Same crash with a commit barrier after every append: the five
	// completed appends are durable; only the in-flight sixth is lost.
	l2 := MustOpen(Options{Policy: SyncOnCommit, Chaos: plan.Injector()})
	for i := 0; i < 10; i++ {
		l2.Append(pushRec(1, "t", uint64(i+1), i, "mem", "read", []int64{0}, 0))
		if err := l2.CommitBarrier(); err != nil {
			t.Fatal(err)
		}
	}
	segs2 := l2.Segments()
	recs2, _, reason2 := DecodeAll(segs2[len(segs2)-1][SegHeaderLen:])
	if reason2 != nil {
		t.Fatalf("per-record barrier crash image has torn tail: %v", reason2)
	}
	if len(recs2) != 5 {
		t.Fatalf("per-record barrier crash survived %d records, want 5", len(recs2))
	}
}

func TestCrashTornAndBitflipStayDecodable(t *testing.T) {
	for _, mode := range []chaos.CrashMode{chaos.CrashTorn, chaos.CrashBitflip} {
		for seed := int64(1); seed <= 20; seed++ {
			plan := chaos.NewPlan(seed).WithCrash(7, mode)
			l := MustOpen(Options{Chaos: plan.Injector()})
			for i := 0; i < 12; i++ {
				l.Append(pushRec(1, "t", uint64(i+1), i, "mem", "write", []int64{int64(i), 9}, 0))
				if i%3 == 2 {
					l.CommitBarrier()
				}
			}
			for _, seg := range l.Segments() {
				if len(seg) < SegHeaderLen {
					continue // header itself torn: recovery drops the segment
				}
				if _, err := CheckSegmentHeader(seg); err != nil {
					continue
				}
				recs, consumed, _ := DecodeAll(seg[SegHeaderLen:])
				if consumed > len(seg)-SegHeaderLen {
					t.Fatalf("%v seed %d: consumed past image", mode, seed)
				}
				_ = recs
			}
		}
	}
}

func TestCommitBarrier(t *testing.T) {
	l := MustOpen(Options{Policy: SyncOnCommit})
	l.Append(sampleRecords()[0])
	if st := l.Stats(); st.Syncs != 1 { // header sync only
		t.Fatalf("unexpected syncs before barrier: %d", st.Syncs)
	}
	if err := l.CommitBarrier(); err != nil {
		t.Fatal(err)
	}
	seg := l.Segments()[0]
	recs, _, _ := DecodeAll(seg[SegHeaderLen:])
	if len(recs) != 1 {
		t.Fatalf("barrier did not flush: %d records durable", len(recs))
	}

	fast := MustOpen(Options{Policy: SyncNever})
	fast.Append(sampleRecords()[0])
	if err := fast.CommitBarrier(); err != nil {
		t.Fatal(err) // fast path: ack without sync
	}
}

func TestPlanStringPrintsCrash(t *testing.T) {
	p := chaos.NewPlan(9).WithRate(chaos.SiteTL2Commit, 0.1).WithCrash(123, chaos.CrashTorn)
	s := p.String()
	for _, want := range []string{"crash@123(torn)", "seed=9"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Fatalf("Plan.String %q missing %q", s, want)
		}
	}
}
