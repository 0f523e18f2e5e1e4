package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pushpull/internal/ops"
	"pushpull/internal/recovery"
	"pushpull/internal/wal"
)

func sampleRecs() []CommitRec {
	return []CommitRec{
		{GSN: 1, Name: "x1", Branches: []BranchRec{
			{Shard: 0, Puts: []KV{{Key: 3, Val: 30}}},
			{Shard: 2, Puts: []KV{{Key: 7, Val: -70}, {Key: 9, Val: 90}}},
		}},
		{GSN: 2, Name: "x2", Branches: []BranchRec{
			{Shard: 1, Puts: nil}, // read-only branch
			{Shard: 3, Puts: []KV{{Key: 11, Val: 1}}},
		}},
	}
}

func TestCoordLogRoundTrip(t *testing.T) {
	l, err := OpenCoordLog("")
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecs()
	for _, r := range want {
		if err := l.AppendCommit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendEnd(1); err != nil {
		t.Fatal(err)
	}
	got, trunc := DecodeCoordLog(l.Image())
	if trunc != nil {
		t.Fatalf("unexpected truncation: %v", trunc)
	}
	want[0].Ended = true
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestCoordLogFileBacked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.log")
	l, err := OpenCoordLog(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecs()[0]
	if err := l.AppendCommit(rec); err != nil {
		t.Fatal(err)
	}
	img := l.Image()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, trunc := DecodeCoordLog(img)
	if trunc != nil || len(got) != 1 || got[0].Name != "x1" {
		t.Fatalf("file-backed decode: %+v, %v", got, trunc)
	}
	// Reopening the same path must refuse (exclusive create).
	if _, err := OpenCoordLog(path); err == nil {
		t.Fatal("expected O_EXCL failure on existing coordinator log")
	}
}

func TestCoordLogTornTail(t *testing.T) {
	l, _ := OpenCoordLog("")
	for _, r := range sampleRecs() {
		if err := l.AppendCommit(r); err != nil {
			t.Fatal(err)
		}
	}
	full := l.Image()
	// Every proper prefix must decode to a prefix of the records with a
	// truncation reason (or cleanly at frame boundaries).
	for cut := coordHdrLen; cut < len(full); cut++ {
		got, _ := DecodeCoordLog(full[:cut])
		if len(got) > 2 {
			t.Fatalf("cut %d produced %d records", cut, len(got))
		}
		for i, r := range got {
			if r.Name != sampleRecs()[i].Name {
				t.Fatalf("cut %d record %d = %q", cut, i, r.Name)
			}
		}
	}
	// A flipped payload byte is caught by the checksum.
	bad := append([]byte(nil), full...)
	bad[len(bad)-1] ^= 0xff
	got, trunc := DecodeCoordLog(bad)
	if trunc == nil || len(got) != 1 {
		t.Fatalf("bitflip: %d records, trunc=%v", len(got), trunc)
	}
}

func TestCoordLogKill(t *testing.T) {
	l, _ := OpenCoordLog("")
	if err := l.AppendCommit(sampleRecs()[0]); err != nil {
		t.Fatal(err)
	}
	// The lazy end marker is not forced; a kill right after must still
	// preserve the forced commit record.
	if err := l.AppendEnd(1); err != nil {
		t.Fatal(err)
	}
	l.Kill()
	if !l.Crashed() {
		t.Fatal("Crashed() false after Kill")
	}
	if err := l.AppendCommit(sampleRecs()[1]); err != ErrCoordCrashed {
		t.Fatalf("append after kill: %v", err)
	}
	got, trunc := DecodeCoordLog(l.Image())
	if trunc != nil {
		t.Fatalf("durable prefix must decode cleanly: %v", trunc)
	}
	if len(got) != 1 || got[0].Name != "x1" || got[0].Ended {
		t.Fatalf("surviving image: %+v", got)
	}
}

func TestDecodeCoordLogEmptyAndBad(t *testing.T) {
	if recs, trunc := DecodeCoordLog(nil); recs != nil || trunc != nil {
		t.Fatalf("empty image: %v, %v", recs, trunc)
	}
	if _, trunc := DecodeCoordLog([]byte("NOTALOG!")); trunc == nil {
		t.Fatal("expected header error")
	}
}

// TestCoordLogBatchRoundTrip appends a mix of batch and standalone
// commit records and asserts the full decode folds the batched
// decisions in order, tracks the sealed epoch, and still applies CEnd
// markers to batched commits.
func TestCoordLogBatchRoundTrip(t *testing.T) {
	l, err := OpenCoordLog("")
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecs()
	if err := l.AppendBatch(BatchRec{Epoch: 1, Commits: recs[:1]}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit(recs[1]); err != nil {
		t.Fatal(err)
	}
	third := CommitRec{GSN: 3, Name: "g3", Branches: []BranchRec{
		{Shard: 0, Puts: []KV{{Key: 1, Val: 5}}},
		{Shard: 1, Puts: []KV{{Key: 2, Val: 6}}},
	}}
	if err := l.AppendBatch(BatchRec{Epoch: 2, Commits: []CommitRec{third}}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEnd(3); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	cr := DecodeCoordLogFull(l.Image())
	if cr.Truncated != nil {
		t.Fatalf("unexpected truncation: %v", cr.Truncated)
	}
	if cr.Batches != 2 || cr.SeqEpoch != 2 {
		t.Fatalf("batches %d epoch %d, want 2 and 2", cr.Batches, cr.SeqEpoch)
	}
	want := []CommitRec{recs[0], recs[1], third}
	want[2].Ended = true
	if !reflect.DeepEqual(cr.Commits, want) {
		t.Fatalf("batch fold mismatch:\n got %+v\nwant %+v", cr.Commits, want)
	}
}

// TestCoordLogBatchTornTail kills the log with an unsynced batch
// pending and asserts the surviving image decodes to the pre-batch
// prefix — presumed abort for the whole torn epoch.
func TestCoordLogBatchTornTail(t *testing.T) {
	l, err := OpenCoordLog("")
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecs()
	if err := l.AppendBatch(BatchRec{Epoch: 1, Commits: recs[:1]}); err != nil {
		t.Fatal(err)
	}
	// A torn second batch: garbage tail shorter than a frame header.
	img := append(l.Image(), 0xFF, 0x00)
	cr := DecodeCoordLogFull(img)
	if cr.Truncated == nil {
		t.Fatal("expected a truncation reason for the torn tail")
	}
	if len(cr.Commits) != 1 || cr.Commits[0].Name != recs[0].Name {
		t.Fatalf("torn decode kept %+v, want just %q", cr.Commits, recs[0].Name)
	}
	if cr.SeqEpoch != 1 {
		t.Fatalf("torn decode epoch %d, want 1", cr.SeqEpoch)
	}
}

// TestCoordLogGolden writes every coordinator record type and compares
// the image byte for byte with testdata/coord-v2.log, written by the
// coordinator log's own encoder before it moved onto the shared wal
// frame codec: old coord.log images boot without a migration, and a
// replica's coordinator stream stays byte-exact.
func TestCoordLogGolden(t *testing.T) {
	l, err := OpenCoordLog("")
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.AppendEpoch(3))
	must(l.AppendLease(7))
	must(l.AppendSession(SessionRec{Session: 41, SeqNo: 2, Results: []wal.SessResult{{Val: -5, Found: true}}}, true))
	must(l.AppendSession(SessionRec{Session: 42, SeqNo: 9, Name: "x1",
		Results: []wal.SessResult{{Val: 30, Found: true}, {Val: 0}}}, false))
	x1 := CommitRec{GSN: 1, Name: "x1", Branches: []BranchRec{
		{Shard: 0, Puts: []KV{{Key: 3, Val: 30}, {Key: 4, Val: -2, Method: ops.WAdd}}},
		{Shard: 2, Puts: []KV{{Key: 7, Val: 70, Method: ops.WSAdd}, {Key: 9, Val: 90, Method: ops.WSRem}}},
	}}
	must(l.AppendCommit(x1))
	must(l.AppendEnd(1))
	batch := BatchRec{Epoch: 5, Commits: []CommitRec{
		{GSN: 2, Name: "x2", Branches: []BranchRec{{Shard: 1}, {Shard: 3, Puts: []KV{{Key: 11, Val: 1, Method: ops.WQPush}}}}},
		{GSN: 3, Name: "x3", Branches: []BranchRec{{Shard: 0, Puts: []KV{{Key: 1 << 40, Val: -1 << 40}}}}},
	}}
	must(l.AppendBatch(batch))
	must(l.AppendEnd(3))
	must(l.Sync())

	golden, err := os.ReadFile(filepath.Join("testdata", "coord-v2.log"))
	if err != nil {
		t.Fatal(err)
	}
	if img := l.Image(); !bytes.Equal(img, golden) {
		t.Fatalf("coordinator image differs from the golden one:\n got %x\nwant %x", img, golden)
	}

	cr := DecodeCoordLogFull(golden)
	x1.Ended, batch.Commits[1].Ended = true, true
	want := append([]CommitRec{x1}, batch.Commits...)
	if cr.Truncated != nil || !reflect.DeepEqual(cr.Commits, want) {
		t.Fatalf("golden decode: truncated %v\n got %+v\nwant %+v", cr.Truncated, cr.Commits, want)
	}
	if cr.Epoch != 3 || cr.LeaseEpoch != 7 || cr.Batches != 1 || cr.SeqEpoch != 5 || cr.Records != 8 {
		t.Fatalf("golden decode: epoch %d lease %d batches %d seq epoch %d records %d",
			cr.Epoch, cr.LeaseEpoch, cr.Batches, cr.SeqEpoch, cr.Records)
	}
	wantSess := map[uint64]recovery.SessionEntry{
		41: {SeqNo: 2, Results: []wal.SessResult{{Val: -5, Found: true}}},
		42: {SeqNo: 9, Results: []wal.SessResult{{Val: 30, Found: true}, {Val: 0}}},
	}
	if !reflect.DeepEqual(cr.Sessions, wantSess) {
		t.Fatalf("golden sessions: got %+v, want %+v", cr.Sessions, wantSess)
	}
}
