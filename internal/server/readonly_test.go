package server

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"pushpull/internal/kvapi"
)

// startPair boots a replicated primary and one follower of it, both
// stopped and leak-checked at cleanup (follower first).
func startPair(t *testing.T, substrate string, shards, keys int) (prim, fol *Server, addrP, addrF string) {
	t.Helper()
	prim, addrP = startServer(t, Options{
		Substrate: substrate, Shards: shards, Keys: keys, Seed: 41, Replicate: true,
	})
	fol, addrF = startServer(t, Options{
		Substrate: substrate, Shards: shards, Keys: keys, Seed: 42,
		Follow: addrP, PollInterval: 2 * time.Millisecond,
	})
	return prim, fol, addrP, addrF
}

// TestCGetFromSnapshotAnyKeys: a counter read answers from the snapshot
// at the counter's own register on a word substrate, whatever the
// register count. A cget that read the typed-cell namespace
// (1<<63 | k) instead lands on register (1<<63 + k) mod keys, which is
// k only when keys is a power of two — with 100 keys it is k+8, and
// the follower answered 0 for a counter the primary held at 5.
func TestCGetFromSnapshotAnyKeys(t *testing.T) {
	for _, keys := range []int{64, 100} {
		_, fol, addrP, addrF := startPair(t, "tl2", 1, keys)
		mustTxn(t, dial(t, addrP), []kvapi.Op{{Kind: kvapi.OpAdd, Key: 3, Val: 5}})
		waitCaughtUp(t, fol)
		for node, addr := range map[string]string{"primary": addrP, "follower": addrF} {
			c := dial(t, addr)
			ops := []kvapi.Op{{Kind: kvapi.OpCGet, Key: 3}, {Kind: kvapi.OpGet, Key: 3}}
			for _, flagged := range []bool{false, true} {
				do := c.Do
				if flagged {
					do = c.DoReadOnly
				}
				resp, err := do(ops)
				if err != nil || resp.Status != kvapi.StatusOK {
					t.Fatalf("keys=%d %s flagged=%v: %v %s %s", keys, node, flagged, err, resp.Status, resp.Msg)
				}
				for i, r := range resp.Results {
					if r.Val != 5 || !r.Found {
						t.Fatalf("keys=%d %s flagged=%v: %v of key 3 = (%d,%v), want 5",
							keys, node, flagged, ops[i].Kind, r.Val, r.Found)
					}
				}
			}
		}
	}
}

// TestKeyTopBitRefused: client keys stop at 2^63-1. On boost the top
// bit namespaces typed counter cells in the snapshot fold, so a blind
// put to 1<<63|5 would alias counter 5 there. The binary protocol and
// the HTTP mirror both refuse such a key, and nothing is written.
func TestKeyTopBitRefused(t *testing.T) {
	s, addr := startServer(t, Options{Substrate: "boost"})
	haddr, err := s.StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const bad = uint64(1)<<63 | 5
	before := s.Stats().Commits

	c, err := kvapi.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := c.Do([]kvapi.Op{{Kind: kvapi.OpPut, Key: bad, Val: 99}}); err == nil && resp.Status == kvapi.StatusOK {
		t.Fatal("binary put to a key >= 2^63 was accepted")
	}
	c.Close()
	hr, err := http.Post("http://"+haddr.String()+"/txn", "application/json",
		strings.NewReader(`{"ops":[{"op":"put","key":9223372036854775813,"val":99}]}`))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP put to a key >= 2^63 = %d, want 400", hr.StatusCode)
	}
	if got := s.Stats().Commits; got != before {
		t.Fatalf("refused requests committed %d transaction(s)", got-before)
	}

	// Counter 5 and its snapshot read are untouched by the refused put.
	c = dial(t, addr)
	mustTxn(t, c, []kvapi.Op{{Kind: kvapi.OpAdd, Key: 5, Val: 1}})
	for _, flagged := range []bool{false, true} {
		do := c.Do
		if flagged {
			do = c.DoReadOnly
		}
		resp, err := do([]kvapi.Op{{Kind: kvapi.OpCGet, Key: 5}, {Kind: kvapi.OpGet, Key: 5}})
		if err != nil || resp.Status != kvapi.StatusOK {
			t.Fatalf("flagged=%v read: %v %s %s", flagged, err, resp.Status, resp.Msg)
		}
		if cg, g := resp.Results[0], resp.Results[1]; cg.Val != 1 || g.Found {
			t.Fatalf("flagged=%v: cget 5 = %d, get 5 = (%d,%v); want 1 and absent", flagged, cg.Val, g.Val, g.Found)
		}
	}
}

// TestReadOnlyRejectsWrites pins the class boundary at the server: a
// one-shot flagged read-only that carries a put is refused on the
// primary and on a follower alike, counts one read-only abort, and
// leaves no snapshot pinned.
func TestReadOnlyRejectsWrites(t *testing.T) {
	prim, fol, addrP, addrF := startPair(t, "tl2", 2, 16)
	for node, n := range map[string]struct {
		s    *Server
		addr string
	}{"primary": {prim, addrP}, "follower": {fol, addrF}} {
		resp, err := dial(t, n.addr).DoReadOnly([]kvapi.Op{
			{Kind: kvapi.OpGet, Key: 1}, {Kind: kvapi.OpPut, Key: 1, Val: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != kvapi.StatusError {
			t.Fatalf("%s: read-only one-shot with a put answered %s", node, resp.Status)
		}
		st := n.s.Stats()
		if st.ROAborts != 1 || st.ROCommits != 0 {
			t.Fatalf("%s: ro aborts/commits = %d/%d, want 1/0", node, st.ROAborts, st.ROCommits)
		}
		if st.MVCCSnapshots != 0 {
			t.Fatalf("%s: refused read-only txn left %d snapshot(s) pinned", node, st.MVCCSnapshots)
		}
	}
}
