package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pushpull/internal/kvapi"
)

// startServer boots a server on a loopback port and registers cleanup
// that asserts the satellite invariant: every shutdown path must pass
// both leak checks (Env-style substrate locks via Backend.LeakCheck and
// obs span/metrics cleanliness via Suite.LeakCheck, both inside
// Server.LeakCheck).
func startServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Stop()
		if err := s.LeakCheck(); err != nil {
			t.Errorf("leak check after shutdown: %v", err)
		}
	})
	return s, addr.String()
}

func dial(t *testing.T, addr string) *kvapi.Client {
	t.Helper()
	c, err := kvapi.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerOneShot(t *testing.T) {
	s, addr := startServer(t, Options{Substrate: "tl2"})
	c := dial(t, addr)

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	resp, err := c.Do([]kvapi.Op{
		{Kind: kvapi.OpPut, Key: 1, Val: 42},
		{Kind: kvapi.OpPut, Key: 2, Val: 43},
		{Kind: kvapi.OpGet, Key: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != kvapi.StatusOK {
		t.Fatalf("txn status = %v (%s)", resp.Status, resp.Msg)
	}
	if len(resp.Results) != 3 || resp.Results[2].Val != 42 || !resp.Results[2].Found {
		t.Fatalf("results = %+v", resp.Results)
	}
	if v, _ := s.Backend().ReadKey(2); v != 43 {
		t.Fatalf("key 2 = %d, want 43", v)
	}
	if err := s.FinalCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestServerInteractive(t *testing.T) {
	_, addr := startServer(t, Options{Substrate: "tl2"})
	c := dial(t, addr)

	if resp, err := c.Begin(); err != nil || resp.Status != kvapi.StatusOK {
		t.Fatalf("begin: %v %v", resp, err)
	}
	// A second begin on the same connection is a protocol error.
	if resp, _ := c.Begin(); resp.Status != kvapi.StatusError {
		t.Fatalf("double begin status = %v, want error", resp.Status)
	}
	if resp, err := c.Put(7, 70); err != nil || resp.Status != kvapi.StatusOK {
		t.Fatalf("put: %v %v", resp, err)
	}
	resp, err := c.Get(7)
	if err != nil || resp.Status != kvapi.StatusOK {
		t.Fatalf("get: %v %v", resp, err)
	}
	if resp.Results[0].Val != 70 {
		t.Fatalf("read-your-writes: got %d, want 70", resp.Results[0].Val)
	}
	if resp, err := c.Commit(); err != nil || resp.Status != kvapi.StatusOK {
		t.Fatalf("commit: %v %v", resp, err)
	}

	// Abort path: the write must not land.
	c.Begin()
	c.Put(8, 80)
	if resp, err := c.Abort(); err != nil || resp.Status != kvapi.StatusOK {
		t.Fatalf("abort: %v %v", resp, err)
	}
	resp, err = c.Do([]kvapi.Op{{Kind: kvapi.OpGet, Key: 8}})
	if err != nil || resp.Status != kvapi.StatusOK {
		t.Fatalf("get after abort: %v %v", resp, err)
	}
	if resp.Results[0].Val != 0 {
		t.Fatalf("aborted write leaked: key 8 = %d", resp.Results[0].Val)
	}

	// Ops without an open transaction are protocol errors.
	if resp, _ := c.Get(1); resp.Status != kvapi.StatusError {
		t.Fatalf("get without begin = %v, want error", resp.Status)
	}
	if resp, _ := c.Commit(); resp.Status != kvapi.StatusError {
		t.Fatalf("commit without begin = %v, want error", resp.Status)
	}
}

// TestServerInteractiveReplayDiverged: an interactive transaction whose
// answered read goes stale before it commits must abort — the conflict
// retry replays the journal, the re-executed Get no longer reproduces
// what the client saw, and committing would certify values that never
// coexisted. Nothing it wrote may land and nothing may leak.
func TestServerInteractiveReplayDiverged(t *testing.T) {
	s, addr := startServer(t, Options{Substrate: "tl2"})
	a, b := dial(t, addr), dial(t, addr)
	if resp, err := a.Begin(); err != nil || resp.Status != kvapi.StatusOK {
		t.Fatalf("begin: %v %v", resp, err)
	}
	if resp, err := a.Get(4); err != nil || resp.Status != kvapi.StatusOK || resp.Results[0].Val != 0 {
		t.Fatalf("get: %v %v", resp, err)
	}
	// Another client overwrites what a has already been told.
	if resp, err := b.Do([]kvapi.Op{{Kind: kvapi.OpPut, Key: 4, Val: 44}}); err != nil || resp.Status != kvapi.StatusOK {
		t.Fatalf("interfering put: %v %v", resp, err)
	}
	if resp, err := a.Put(5, 55); err != nil || resp.Status != kvapi.StatusOK {
		// The conflict may already surface here on an eager substrate.
		if err != nil || resp.Status != kvapi.StatusAborted {
			t.Fatalf("put: %v %v", resp, err)
		}
	} else {
		resp, err := a.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != kvapi.StatusAborted || !strings.Contains(resp.Msg, "replay diverged") {
			t.Fatalf("commit over a stale read = %v (%q), want aborted: replay diverged", resp.Status, resp.Msg)
		}
	}
	if n := s.sessions.Load(); n != 0 {
		t.Fatalf("%d session(s) still open after the abort", n)
	}
	resp, err := b.Do([]kvapi.Op{{Kind: kvapi.OpGet, Key: 5}, {Kind: kvapi.OpGet, Key: 4}})
	if err != nil || resp.Status != kvapi.StatusOK {
		t.Fatalf("read-back: %v %v", resp, err)
	}
	if resp.Results[0].Found && resp.Results[0].Val != 0 || resp.Results[1].Val != 44 {
		t.Fatalf("after the abort: key 5 = %+v (want untouched), key 4 = %+v (want 44)", resp.Results[0], resp.Results[1])
	}
	if err := s.FinalCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestServerDroppedConnection is the satellite-2 regression: a client
// that disconnects mid-transaction must not leak the session, its span,
// or its substrate locks. Exercised on pess too, whose interactive
// transactions hold real 2PL locks while awaiting the client.
func TestServerDroppedConnection(t *testing.T) {
	for _, sub := range []string{"tl2", "pess", "boost"} {
		sub := sub
		t.Run(sub, func(t *testing.T) {
			s, addr := startServer(t, Options{Substrate: sub})
			c, err := kvapi.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			if resp, err := c.Begin(); err != nil || resp.Status != kvapi.StatusOK {
				t.Fatalf("begin: %v %v", resp, err)
			}
			if resp, err := c.Put(3, 33); err != nil || resp.Status != kvapi.StatusOK {
				t.Fatalf("put: %v %v", resp, err)
			}
			c.Close() // vanish mid-transaction

			// The handler notices the dead connection and aborts the
			// session; wait for the open-session gauge to drain.
			deadline := time.Now().Add(2 * time.Second)
			for s.sessions.Load() != 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := s.sessions.Load(); n != 0 {
				t.Fatalf("%d session(s) still open after disconnect", n)
			}
			// The abandoned write must not have committed, and a new
			// client must not be blocked by leaked locks.
			c2 := dial(t, addr)
			resp, err := c2.Do([]kvapi.Op{{Kind: kvapi.OpGet, Key: 3}})
			if err != nil || resp.Status != kvapi.StatusOK {
				t.Fatalf("get after drop: %v %v", resp, err)
			}
			if resp.Results[0].Val != 0 {
				t.Fatalf("abandoned write leaked: key 3 = %d", resp.Results[0].Val)
			}
			s.Stop()
			if err := s.LeakCheck(); err != nil {
				t.Fatal(err)
			}
			if err := s.FinalCheck(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServerBackpressure pins admission control: with one slot and no
// queue, a second concurrent transaction is rejected with StatusBusy
// and a retry hint.
func TestServerBackpressure(t *testing.T) {
	_, addr := startServer(t, Options{Substrate: "tl2", MaxInflight: 1, MaxQueue: -1})
	c1 := dial(t, addr)
	c2 := dial(t, addr)

	if resp, err := c1.Begin(); err != nil || resp.Status != kvapi.StatusOK {
		t.Fatalf("begin: %v %v", resp, err)
	}
	resp, err := c2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != kvapi.StatusBusy {
		t.Fatalf("second begin = %v, want busy", resp.Status)
	}
	if resp.RetryAfterMs == 0 {
		t.Fatal("busy response carries no Retry-After hint")
	}
	// One-shots hit the same gate.
	if resp, _ := c2.Do([]kvapi.Op{{Kind: kvapi.OpGet, Key: 0}}); resp.Status != kvapi.StatusBusy {
		t.Fatalf("one-shot during full gate = %v, want busy", resp.Status)
	}
	if resp, err := c1.Commit(); err != nil || resp.Status != kvapi.StatusOK {
		t.Fatalf("commit: %v %v", resp, err)
	}
	// Slot freed: the retry succeeds.
	if resp, err := c2.Begin(); err != nil || resp.Status != kvapi.StatusOK {
		t.Fatalf("begin after free: %v %v", resp, err)
	}
	c2.Abort()
}

// TestServerConcurrentIncrements runs interactive read-modify-write
// transactions from many connections and checks conservation.
func TestServerConcurrentIncrements(t *testing.T) {
	s, addr := startServer(t, Options{Substrate: "tl2"})
	const workers, each = 6, 20
	var wg sync.WaitGroup
	var committed atomic64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := kvapi.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < each; i++ {
				for {
					resp, err := c.Begin()
					if err != nil {
						t.Error(err)
						return
					}
					if resp.Status == kvapi.StatusBusy {
						time.Sleep(time.Duration(resp.RetryAfterMs) * time.Millisecond)
						continue
					}
					g, err := c.Get(11)
					if err != nil {
						t.Error(err)
						return
					}
					if g.Status != kvapi.StatusOK {
						break // aborted mid-session; retry whole txn
					}
					p, err := c.Put(11, g.Results[0].Val+1)
					if err != nil {
						t.Error(err)
						return
					}
					if p.Status != kvapi.StatusOK {
						break
					}
					cm, err := c.Commit()
					if err != nil {
						t.Error(err)
						return
					}
					if cm.Status == kvapi.StatusOK {
						committed.add(1)
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	got, _ := s.Backend().ReadKey(11)
	if got != committed.load() {
		t.Fatalf("counter = %d, committed = %d: lost updates", got, committed.load())
	}
	if committed.load() == 0 {
		t.Fatal("nothing committed")
	}
	if err := s.FinalCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestServerHTTP(t *testing.T) {
	s, addr := startServer(t, Options{Substrate: "tl2"})
	haddr, err := s.StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + haddr.String()

	// Binary write, HTTP read-back.
	c := dial(t, addr)
	if resp, err := c.Do([]kvapi.Op{{Kind: kvapi.OpPut, Key: 5, Val: 55}}); err != nil || resp.Status != kvapi.StatusOK {
		t.Fatalf("binary put: %v %v", resp, err)
	}
	body := strings.NewReader(`{"ops":[{"op":"get","key":5},{"op":"put","key":6,"val":66}]}`)
	hr, err := http.Post(base+"/txn", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(hr.Body)
		t.Fatalf("POST /txn = %d: %s", hr.StatusCode, b)
	}
	var tr kvapi.TxnResponseJSON
	if err := json.NewDecoder(hr.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Status != "ok" || len(tr.Results) != 2 || tr.Results[0].Val != 55 {
		t.Fatalf("http txn response: %+v", tr)
	}
	if v, _ := s.Backend().ReadKey(6); v != 66 {
		t.Fatalf("http put missing: key 6 = %d", v)
	}

	for _, path := range []string{"/healthz", "/stats"} {
		r, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, r.StatusCode)
		}
		r.Body.Close()
	}

	// The per-endpoint request metrics reach the Prometheus surface.
	r, err := http.Get(base + "/debug/pushpull")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(r.Body)
	r.Body.Close()
	for _, want := range []string{
		`pushpull_requests_total{endpoint="txn",outcome="ok"}`,
		`pushpull_requests_total{endpoint="http.txn",outcome="ok"}`,
		`pushpull_request_seconds_bucket{endpoint="txn",`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, prom)
		}
	}
}

// TestHTTPBodyBounded: POST /txn reads at most one frame's worth of
// body. An oversized request is refused with a 4xx before admission
// control is involved, so it cannot hold a slot, and the endpoint keeps
// serving.
func TestHTTPBodyBounded(t *testing.T) {
	s, _ := startServer(t, Options{Substrate: "tl2", MaxInflight: 1, MaxQueue: -1})
	haddr, err := s.StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + haddr.String() + "/txn"
	// Valid JSON, padded past the bound: only its size is wrong.
	huge := `{"ops":[{"op":"put","key":6,"val":66}]` + strings.Repeat(" ", 2*kvapi.MaxFrame) + `}`
	hr, err := http.Post(url, "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode < 400 || hr.StatusCode >= 500 {
		t.Fatalf("oversized POST /txn = %d, want 4xx", hr.StatusCode)
	}
	if v, _ := s.Backend().ReadKey(6); v != 0 {
		t.Fatalf("oversized request executed: key 6 = %d", v)
	}
	if n := s.gate.inFlight(); n != 0 {
		t.Fatalf("%d admission slot(s) held after the refusal", n)
	}
	// The only slot is free: a well-sized request commits.
	hr, err = http.Post(url, "application/json", strings.NewReader(`{"ops":[{"op":"put","key":6,"val":66}]}`))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("POST /txn after the refusal = %d", hr.StatusCode)
	}
}

// TestServerStopWithOpenSessions: shutting down with live interactive
// transactions must abort them and leave nothing behind.
func TestServerStopWithOpenSessions(t *testing.T) {
	s, err := New(Options{Substrate: "pess"})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var clients []*kvapi.Client
	for i := 0; i < 4; i++ {
		c, err := kvapi.Dial(addr.String())
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		if resp, err := c.Begin(); err != nil || resp.Status != kvapi.StatusOK {
			t.Fatalf("begin %d: %v %v", i, resp, err)
		}
		if resp, err := c.Put(uint64(i), int64(i)); err != nil || resp.Status != kvapi.StatusOK {
			t.Fatalf("put %d: %v %v", i, resp, err)
		}
	}
	s.Stop()
	for _, c := range clients {
		c.Close()
	}
	if err := s.LeakCheck(); err != nil {
		t.Fatalf("leaks after Stop with open sessions: %v", err)
	}
	if err := s.FinalCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestServerStatsShape(t *testing.T) {
	s, addr := startServer(t, Options{Substrate: "tl2"})
	c := dial(t, addr)
	c.Do([]kvapi.Op{{Kind: kvapi.OpPut, Key: 1, Val: 1}})
	st := s.Stats()
	if st.Substrate != "tl2" || st.Commits == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := json.Marshal(st); err != nil {
		t.Fatal(err)
	}
}

// atomic64 is a tiny mutex-guarded tally for test goroutines.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
