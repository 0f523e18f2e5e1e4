package main

// metricDef is one row of BENCHMARK.json. The tables below are the
// source of the names; a test holds BENCHMARK.json equal to them.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	// Per-layer metrics have none.
	Bound float64
}

// endToEnd is what a user of the service sees. Every workload reports
// every one of them, and none can be zero. Failed transactions are not
// a metric here: the result line carries them as attempted/failed, and
// a workload on which the final outcome of any transaction is not OK
// after the client's resubmits shows there.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "restart_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rw_commit_per_s", Unit: "txn/s", Better: "higher", Bound: 0.25},
	{Name: "rw_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rw_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ro_commit_per_s", Unit: "txn/s", Better: "higher", Bound: 0.25},
}

// value is one measured metric with the number of samples behind it
// (0 where the metric is a ratio of counters, not a sampled timing).
type value struct {
	V float64
	N int
}

// results maps metric name to value for one run.
type results map[string]value

// medians folds per-trial results into one: the median value per name
// over the samples of every trial.
func medians(rs []results) results {
	out := results{}
	for name := range rs[0] {
		vs := make([]float64, len(rs))
		n := 0
		for i, r := range rs {
			vs[i] = r[name].V
			n += r[name].N
		}
		out[name] = value{V: median(vs), N: n}
	}
	return out
}

func (m measured) endToEnd() results {
	rs := make([]results, len(m.trials))
	for i, t := range m.trials {
		rs[i] = t.endToEnd()
	}
	return medians(rs)
}

func (m measured) windowLayer() results {
	rs := make([]results, len(m.trials))
	for i, t := range m.trials {
		rs[i] = t.windowLayer()
	}
	return medians(rs)
}

// attempted counts the transactions of every trial's window, the ones
// among them whose final outcome was not OK, and the first such reply.
func (m measured) attempted() (attempted, failed int, failure string) {
	for _, t := range m.trials {
		attempted += t.clients.attempted
		failed += t.clients.failed
		if failure == "" {
			failure = t.clients.failure
		}
	}
	return attempted, failed, failure
}

func (m trial) endToEnd() results {
	secs := m.window.Seconds()
	rw, ro := m.clients.rwMs, m.clients.roMs
	r := results{
		"setup_s":         {V: m.setupS},
		"restart_s":       {V: m.restartS},
		"rw_commit_per_s": {V: float64(len(rw)) / secs, N: len(rw)},
		"ro_commit_per_s": {V: float64(len(ro)) / secs, N: len(ro)},
	}
	r["rw_p50_ms"] = pct(rw, 50)
	r["rw_p95_ms"] = pct(rw, 95)
	return r
}

func pct(xs []float64, p float64) value {
	v, n := percentile(xs, p)
	return value{V: v, N: n}
}

// perLayer names one metric per thing a single layer does; layer names
// are the module names under internal/. "window" ones are deltas read
// across the measured window through the server's public counters;
// "probe" ones are median span durations of the traced pass. A value of
// 0 on a shard.*, seq.* or ops.* row means the workload does not use
// that layer (the driver wants every name on every run).
var perLayer = []metricDef{
	// window
	{Name: "client.rw_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.ro_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.ro_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.ro_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.rw_max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.resubmits_per_commit", Unit: "ratio", Better: "lower"},
	{Name: "client.failed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "backend.retries_per_commit", Unit: "ratio", Better: "lower"},
	{Name: "backend.abort_ratio", Unit: "ratio", Better: "lower"},
	{Name: "wal.syncs_per_commit", Unit: "ratio", Better: "lower"},
	{Name: "wal.barriers_per_sync", Unit: "ratio", Better: "higher"},
	{Name: "wal.bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "shard.cross_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ops.commute_hits_per_typed_op", Unit: "ratio", Better: "higher"},
	{Name: "mvcc.versions_end", Unit: "count", Better: "lower"},
	{Name: "process.allocs_per_commit", Unit: "count", Better: "lower"},
	{Name: "process.alloc_kb_per_commit", Unit: "KiB", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "process.cpu_ms_per_commit", Unit: "ms", Better: "lower"},
	// probe
	{Name: "kvapi.codec_us", Unit: "us", Better: "lower"},
	{Name: "kvapi.codec_allocs", Unit: "count", Better: "lower"},
	{Name: "backend.atomic_raw_us", Unit: "us", Better: "lower"},
	{Name: "backend.atomic_raw_allocs", Unit: "count", Better: "lower"},
	{Name: "backend.atomic_cert_us", Unit: "us", Better: "lower"},
	{Name: "backend.atomic_cert_allocs", Unit: "count", Better: "lower"},
	{Name: "trace.certify_self_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.barrier_us", Unit: "us", Better: "lower"},
	{Name: "wal.records_per_commit", Unit: "count", Better: "lower"},
	{Name: "shard.do_single_us", Unit: "us", Better: "lower"},
	{Name: "shard.do_cross_mutex_us", Unit: "us", Better: "lower"},
	{Name: "shard.do_cross_seq_us", Unit: "us", Better: "lower"},
	{Name: "seq.txns_per_epoch", Unit: "count", Better: "higher"},
	{Name: "server.dotxn_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "kvapi.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "kvapi.transport_self_us", Unit: "us", Better: "lower"},
	{Name: "server.readonly_us", Unit: "us", Better: "lower"},
	{Name: "mvcc.snapshot_read_us", Unit: "us", Better: "lower"},
	{Name: "repl.apply_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "recovery.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.certify_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.certify_ms_half", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// ratio is a/b, and 0 when the workload never did the thing b counts.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowLayer turns the window's counter deltas into per-layer metrics.
// "per commit" divides by the read-write transactions the clients saw
// commit; the process.* rows divide by every committed transaction,
// read-only ones included, since they cost allocations and CPU too.
func (m trial) windowLayer() results {
	rw, ro := m.clients.rwMs, m.clients.roMs
	commits := float64(len(rw))
	all := float64(len(rw) + len(ro))
	a, b := m.after, m.before
	sa, sb := a.stats, b.stats
	d := func(x, y uint64) float64 { return float64(x - y) }
	rwMax, _ := percentile(rw, 100)
	return results{
		"client.rw_p99_ms":            pct(rw, 99),
		"client.ro_p50_ms":            pct(ro, 50),
		"client.ro_p95_ms":            pct(ro, 95),
		"client.ro_p99_ms":            pct(ro, 99),
		"client.rw_max_ms":            {V: rwMax, N: len(rw)},
		"client.resubmits_per_commit": {V: ratio(float64(m.clients.resubmits), commits)},
		"client.failed_ratio":         {V: ratio(float64(m.clients.failed), float64(m.clients.attempted))},

		"backend.retries_per_commit": {V: ratio(float64(m.clients.retries), commits)},
		"backend.abort_ratio":        {V: ratio(d(sa.Aborts, sb.Aborts), d(sa.Aborts, sb.Aborts)+d(sa.Commits, sb.Commits))},

		"wal.syncs_per_commit":  {V: ratio(d(sa.GroupSyncs, sb.GroupSyncs), commits)},
		"wal.barriers_per_sync": {V: ratio(d(sa.GroupBarriers, sb.GroupBarriers), d(sa.GroupSyncs, sb.GroupSyncs))},
		"wal.bytes_per_commit":  {V: ratio(float64(a.walBytes-b.walBytes), commits)},

		"shard.cross_ratio":             {V: ratio(d(sa.CrossCommits, sb.CrossCommits), commits)},
		"ops.commute_hits_per_typed_op": {V: ratio(d(sa.CommuteHits, sb.CommuteHits), d(sa.TypedOps, sb.TypedOps))},
		"mvcc.versions_end":             {V: float64(sa.MVCCVersions)},

		"process.allocs_per_commit":   {V: ratio(d(a.mem.Mallocs, b.mem.Mallocs), all)},
		"process.alloc_kb_per_commit": {V: ratio(d(a.mem.TotalAlloc, b.mem.TotalAlloc)/1024, all)},
		"process.gc_pause_ms":         {V: d(a.mem.PauseTotalNs, b.mem.PauseTotalNs) / 1e6},
		"process.cpu_ms_per_commit":   {V: ratio(float64(a.cpu-b.cpu)/1e6, all)},
	}
}
