package backend

import (
	"fmt"
	"testing"

	"pushpull/internal/mvcc"
)

// TestSnapshotStoreFollowsCommits pins the MVCC seam end to end for
// every substrate: the version store attached to the certifying
// recorder must converge to exactly the committed KV image, snapshots
// must serve it, and the certifier must accept the observed reads.
func TestSnapshotStoreFollowsCommits(t *testing.T) {
	for _, sub := range Substrates() {
		sub := sub
		t.Run(sub, func(t *testing.T) {
			be, err := NewBackend(Config{Substrate: sub, Keys: 32})
			if err != nil {
				t.Fatal(err)
			}
			st := be.Snapshots()
			if st == nil {
				t.Fatal("certified backend has no snapshot store")
			}
			for i := 0; i < 20; i++ {
				k, v := uint64(i%8), int64(100+i)
				err := be.Atomic(fmt.Sprintf("w-%d", i), func(view View) error {
					return view.Put(k, v)
				})
				if err != nil {
					t.Fatalf("txn %d: %v", i, err)
				}
			}
			if st.StoreStats().Watermark == 0 {
				t.Fatal("watermark did not advance: CMT events not reaching the applier")
			}
			cut := mvcc.Pin([]*mvcc.Store{st}, func(uint64) int { return 0 })
			defer cut.Close()
			for k := uint64(0); k < 8; k++ {
				got, found := cut.Get(k)
				want, wantFound := be.ReadKey(k)
				if found != wantFound || got != want {
					t.Errorf("key %d: snapshot (%d,%v), substrate (%d,%v)", k, got, found, want, wantFound)
				}
			}
			// The independent certifier must agree with the store fold.
			if err := cut.Certify(); err != nil {
				t.Fatalf("certify: %v", err)
			}
		})
	}
}

// TestDisableCertHasNoStore pins the fallback contract: raw-throughput
// mode drops the recorder, so there is no committed-log fold to serve
// snapshots from and the server must route read-only work through the
// normal transactional path.
func TestDisableCertHasNoStore(t *testing.T) {
	be, err := NewBackend(Config{Substrate: "tl2", Keys: 8, DisableCert: true})
	if err != nil {
		t.Fatal(err)
	}
	if be.Snapshots() != nil {
		t.Fatal("uncertified backend must not expose a snapshot store")
	}
}
