// Package obs is the observability subsystem: it bundles the
// rule-level metrics aggregator (obs/metrics) and the span timeline
// tracker (obs/span) behind one core.EventSink, so a campaign attaches
// a single subscriber per machine and gets both.
//
// The seam is core's per-rule dispatch point: the WAL LogHook always
// fires first, then registered sinks in order, under one monotonic
// sequence — so durability and telemetry can never disagree on rule
// entry ordering. Attachment points:
//
//   - substrates: trace.Recorder.SetSite + AttachSink (the recorder
//     mutex serializes emission in real commit order);
//   - the cooperative model: Machine.SetSite + AddEventSink;
//   - the scheduler: sched.RunChaosObserved with Suite.Metrics as the
//     sched.Observer (stalls, kills);
//   - fault injection: chaos.Faults.SetObserver → Metrics.FaultFired;
//   - retries: chaos.RetryPolicy.OnRetry → Metrics.RetryObserved;
//   - the WAL: wal.Options.SyncObserver → Metrics.WALSyncObserved.
//
// internal/bench wires all of these when ChaosParams/SubstrateParams
// carry a Suite; the -metrics/-trace/-http flags of pushpull-check's
// sweeps and of pushpull-bench attach one (bench.ObsOutputs) and emit
// the Prometheus-text summary plus the Chrome-trace timeline.
package obs

import (
	"pushpull/internal/core"
	"pushpull/internal/obs/metrics"
	"pushpull/internal/obs/span"
)

// Suite is the combined subscriber.
type Suite struct {
	Metrics *metrics.Metrics
	Spans   *span.Tracker
}

// New returns a fresh suite with default metrics buckets and span
// bounds.
func New() *Suite {
	return &Suite{Metrics: metrics.New(), Spans: span.NewTracker()}
}

// Emit implements core.EventSink, fanning each rule transition to the
// metrics aggregator and the span tracker.
func (s *Suite) Emit(e core.SinkEvent) {
	s.Metrics.Emit(e)
	s.Spans.Emit(e)
}

// LeakCheck asserts every BEGIN had its matching CMT/ABORT pop.
func (s *Suite) LeakCheck() error { return s.Spans.LeakCheck() }

var _ core.EventSink = (*Suite)(nil)
