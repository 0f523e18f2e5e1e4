package bench

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"pushpull/internal/kvapi"
)

// TestAbortRatioMeansOneThing: every abort_ratio JSON key — the load
// summary, the model rows, the substrate rows — is
// aborts/(aborts+commits), a fraction of attempts, through the one
// helper. (The load summary used to print aborts/commits.)
func TestAbortRatioMeansOneThing(t *testing.T) {
	key := func(b []byte, err error) float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var row struct {
			AbortRatio *float64 `json:"abort_ratio"`
		}
		if err := json.Unmarshal(b, &row); err != nil || row.AbortRatio == nil {
			t.Fatalf("no abort_ratio in %s (%v)", b, err)
		}
		return *row.AbortRatio
	}
	for _, tc := range []struct {
		aborts, commits uint64
		want            float64
	}{{0, 0, 0}, {0, 5, 0}, {5, 0, 1}, {5, 5, 0.5}, {9, 1, 0.9}} {
		if got := AbortRatio(tc.aborts, tc.commits); got != tc.want {
			t.Errorf("AbortRatio(%d, %d) = %v, want %v", tc.aborts, tc.commits, got, tc.want)
		}
		load := kvapi.LoadResult{Aborts: tc.aborts, Commits: tc.commits}
		if got := key(LoadSummaryJSON(load, "")); got != tc.want {
			t.Errorf("load summary %d/%d: abort_ratio %v, want %v", tc.aborts, tc.commits, got, tc.want)
		}
		model := ModelResult{Aborts: int(tc.aborts), Commits: int(tc.commits)}
		if got := key(json.Marshal(model)); got != tc.want || model.AbortRatio() != tc.want {
			t.Errorf("model row %d/%d: abort_ratio %v, want %v", tc.aborts, tc.commits, got, tc.want)
		}
		sub := SubstrateResult{Aborts: tc.aborts, Commits: tc.commits}
		if got := key(json.Marshal(sub)); got != tc.want || sub.AbortRatio() != tc.want {
			t.Errorf("substrate row %d/%d: abort_ratio %v, want %v", tc.aborts, tc.commits, got, tc.want)
		}
	}
}

// TestLoadSummaryKeys pins the pushpull-load -json document key by
// key, every field carrying a distinct value so a transposition shows.
func TestLoadSummaryKeys(t *testing.T) {
	res := kvapi.LoadResult{
		Params: kvapi.LoadParams{
			Addr: "a:1", Clients: 2, Keys: 3, ReadPct: 4, OpsPerTxn: 5, Skew: 1.5,
			Interactive: true, Seed: 6, Shards: 7, CrossPct: 8, ReadOnlyPct: 9,
		},
		Elapsed: 2 * time.Second, Commits: 30, Aborts: 10, Busy: 11, Errors: 12, Retries: 13,
		P50: time.Millisecond, P95: 2 * time.Millisecond, P99: 3 * time.Millisecond,
		ROCommits: 14, ROAborts: 15, CommuteHits: 16,
	}
	b, err := LoadSummaryJSON(res, "incr:1")
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"addr": "a:1", "clients": 2.0, "keys": 3.0, "read_pct": 4.0, "ops_per_txn": 5.0,
		"op_mix": "incr:1", "skew": 1.5, "interactive": true, "seed": 6.0, "shards": 7.0,
		"cross_pct": 8.0, "readonly_pct": 9.0, "duration_ms": 2000.0, "commits": 30.0,
		"aborts": 10.0, "busy": 11.0, "errors": 12.0, "retries": 13.0, "ro_commits": 14.0,
		"ro_aborts": 15.0, "abort_ratio": 0.25, "commute_hits": 16.0,
		"perf": map[string]any{"txn_per_sec": 15.0, "p50_ms": 1.0, "p95_ms": 2.0, "p99_ms": 3.0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("load summary:\n got %v\nwant %v", got, want)
	}
	// Zero is a finding, not noise: these survive encoding at 0.
	b, _ = LoadSummaryJSON(kvapi.LoadResult{}, "")
	got = nil
	_ = json.Unmarshal(b, &got)
	for _, k := range []string{"abort_ratio", "commute_hits", "ro_aborts"} {
		if _, ok := got[k]; !ok {
			t.Errorf("zero-valued %q omitted from %s", k, b)
		}
	}
}
