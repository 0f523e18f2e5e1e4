package bench

import (
	"encoding/json"
	"time"

	"pushpull/internal/kvapi"
)

// This file is the machine-readable side of the harness: what the
// -json flag of pushpull-check's sweeps, pushpull-bench and
// pushpull-load prints. The schema is the json tags on the result
// types themselves (Outcome, ModelResult, SubstrateResult and their
// Params); the MarshalJSON methods only add the derived keys —
// abort_ratio, duration_ms, perf — and flatten Params into the row.

// AbortRatio is the fraction of attempts that aborted,
// aborts/(aborts+commits) in [0,1] — the one meaning of every
// abort_ratio JSON key, matching benchmark/'s backend.abort_ratio.
func AbortRatio(aborts, commits uint64) float64 {
	if aborts == 0 {
		return 0
	}
	return float64(aborts) / float64(aborts+commits)
}

// abortsPerCommit is the text tables' aborts/commit column: wasted
// attempts per useful one, unbounded above.
func abortsPerCommit(aborts, commits uint64) float64 {
	if commits == 0 {
		return 0
	}
	return float64(aborts) / float64(commits)
}

// perfJSON is the shared throughput/latency summary. Latency quantiles
// are zero for the in-process sweeps (no per-transaction client clock)
// and populated by the network load generator.
type perfJSON struct {
	TxnPerSec float64 `json:"txn_per_sec"`
	P50Ms     float64 `json:"p50_ms,omitempty"`
	P95Ms     float64 `json:"p95_ms,omitempty"`
	P99Ms     float64 `json:"p99_ms,omitempty"`
}

// derivedJSON is the keys every result row computes rather than stores.
type derivedJSON struct {
	AbortRatio float64  `json:"abort_ratio"`
	DurationMs float64  `json:"duration_ms"`
	Perf       perfJSON `json:"perf"`
}

func derived(aborts, commits uint64, d time.Duration) derivedJSON {
	out := derivedJSON{AbortRatio: AbortRatio(aborts, commits), DurationMs: float64(d.Milliseconds())}
	if d > 0 {
		out.Perf.TxnPerSec = float64(commits) / d.Seconds()
	}
	return out
}

// MarshalJSON renders one row of `pushpull-bench -json -table model`.
func (r ModelResult) MarshalJSON() ([]byte, error) {
	type tagged ModelResult
	return json.Marshal(struct {
		ModelParams
		tagged
		derivedJSON
	}{r.Params, tagged(r), derived(uint64(r.Aborts), uint64(r.Commits), r.Duration)})
}

// MarshalJSON renders one row of `pushpull-bench -json -table substrate`.
func (r SubstrateResult) MarshalJSON() ([]byte, error) {
	type tagged SubstrateResult
	return json.Marshal(struct {
		SubstrateParams
		tagged
		derivedJSON
	}{r.Params, tagged(r), derived(r.Aborts, r.Commits, r.Duration)})
}

// LoadSummaryJSON renders one load-generator result as the
// `pushpull-load -json` document — the network-side counterpart of a
// substrate row. opMix is the -op-mix flag as given.
func LoadSummaryJSON(res kvapi.LoadResult, opMix string) ([]byte, error) {
	p := res.Params
	d := derived(res.Aborts, res.Commits, res.Elapsed)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	d.Perf.P50Ms, d.Perf.P95Ms, d.Perf.P99Ms = ms(res.P50), ms(res.P95), ms(res.P99)
	return json.MarshalIndent(struct {
		Addr        string  `json:"addr"`
		Clients     int     `json:"clients"`
		Keys        int     `json:"keys"`
		ReadPct     int     `json:"read_pct"`
		OpsPerTxn   int     `json:"ops_per_txn"`
		OpMix       string  `json:"op_mix,omitempty"`
		Skew        float64 `json:"skew,omitempty"`
		Interactive bool    `json:"interactive"`
		Seed        int64   `json:"seed"`
		Shards      int     `json:"shards,omitempty"`
		CrossPct    int     `json:"cross_pct,omitempty"`
		ReadOnlyPct int     `json:"readonly_pct,omitempty"`
		Commits     uint64  `json:"commits"`
		Aborts      uint64  `json:"aborts"`
		Busy        uint64  `json:"busy"`
		Errors      uint64  `json:"errors"`
		Retries     uint64  `json:"retries"`
		ROCommits   uint64  `json:"ro_commits,omitempty"`
		// ro_aborts, abort_ratio and commute_hits deliberately never
		// omit their zero values: "0 aborts" and "0 commute hits" are
		// findings, not noise.
		ROAborts    uint64 `json:"ro_aborts"`
		CommuteHits uint64 `json:"commute_hits"`
		derivedJSON
	}{
		p.Addr, p.Clients, p.Keys, p.ReadPct, p.OpsPerTxn, opMix, p.Skew,
		p.Interactive, p.Seed, p.Shards, p.CrossPct, p.ReadOnlyPct,
		res.Commits, res.Aborts, res.Busy, res.Errors, res.Retries,
		res.ROCommits, res.ROAborts, res.CommuteHits, d,
	}, "", "  ")
}
