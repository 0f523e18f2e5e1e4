package shard

import (
	"sync"
	"testing"
)

// TestSnapshotCutNeverTorn hammers the GSN-consistent cut with a
// writer committing the same value to two keys on different shards in
// one cross-shard transaction, while readers pin cuts and read both
// keys. A cut that ever shows the two keys unequal has observed a
// cross-shard transaction on one participant but not the other —
// exactly the tear SnapshotCut's commitMu critical section excludes.
func TestSnapshotCutNeverTorn(t *testing.T) {
	e := newTestEngine(t, Options{Shards: 2, Substrate: "tl2"})
	keys := keysOnDistinctShards(t, e, 2)
	k1, k2 := keys[0], keys[1]

	// Establish the invariant before readers start.
	if _, _, err := e.Do([]Op{
		{Kind: OpPut, Key: k1, Val: 0},
		{Kind: OpPut, Key: k2, Val: 0},
	}); err != nil {
		t.Fatal(err)
	}

	const txns = 300
	var wg sync.WaitGroup
	wg.Add(1)
	writeErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := int64(1); i <= txns; i++ {
			if _, _, err := e.Do([]Op{
				{Kind: OpPut, Key: k1, Val: i},
				{Kind: OpPut, Key: k2, Val: i},
			}); err != nil {
				writeErr <- err
				return
			}
		}
	}()

	// Two reader flavors racing the writer: a certified read-only
	// transaction (pin, read, Certify) and a raw SnapshotCut with
	// Cut.Get alone.
	for done := false; !done; {
		select {
		case err := <-writeErr:
			t.Fatalf("writer: %v", err)
		default:
		}
		ro, err := e.SnapshotCut()
		if err != nil {
			t.Fatalf("SnapshotCut: %v", err)
		}
		r1, _ := ro.Get(k1)
		r2, _ := ro.Get(k2)
		err = ro.Certify()
		ro.Close()
		if err != nil {
			t.Fatalf("certify: %v", err)
		}
		if r1 != r2 {
			t.Fatalf("torn snapshot read: %d != %d", r1, r2)
		}
		cut, err := e.SnapshotCut()
		if err != nil {
			t.Fatalf("SnapshotCut: %v", err)
		}
		v1, _ := cut.Get(k1)
		v2, _ := cut.Get(k2)
		cut.Close()
		if v1 != v2 {
			t.Fatalf("torn cut: %d != %d", v1, v2)
		}
		done = v1 == txns
	}
	wg.Wait()

	// The stores saw real churn and every pin was released.
	if s := e.MVCCStats(); s.Watermark == 0 || s.Versions == 0 || s.SnapshotsOpen != 0 {
		t.Fatalf("mvcc stats after campaign: %+v", s)
	}
	finishEngine(t, e)
}
