package core

import "pushpull/internal/spec"

// SinkEvent is one successful rule transition as delivered to an
// EventSink: the universal instrumentation record. Every TM substrate
// in this repository reduces to the same eight transitions (APP, UNAPP,
// PUSH, UNPUSH, PULL, UNPULL, CMT plus the whole-transaction abort
// mark), so one sink observes TL2, 2PL, boosting, HTM-sim, dependent
// transactions, and the hybrid uniformly — rule-level telemetry is
// substrate-agnostic by construction.
type SinkEvent struct {
	// Seq is the machine's monotonic dispatch sequence number. It is
	// assigned under whatever serializes the machine (the trace.Recorder
	// mutex for shadow machines, the cooperative scheduler for the model
	// machine), so all subscribers observe the same total order.
	Seq uint64
	// Site labels the emitting machine (the substrate name for shadow
	// machines, "model" for the cooperative machine); see SetSite.
	Site string
	// Rule is the transition that fired. RBegin/RCmt/RAbort bracket
	// transaction attempts; REnd marks thread retirement.
	Rule Rule
	// Tx is the machine thread id of the acting transaction.
	Tx uint64
	// TxName is the transaction's name, if any.
	TxName string
	// Op is the operation the rule moved (zero for BEGIN/CMT/ABORT/END).
	Op spec.Op
	// Stamp is the commit serial number (CMT events only).
	Stamp uint64
	// UncommittedPull marks PULL events whose operation belonged to a
	// then-uncommitted transaction (the opacity-breaking observations).
	UncommittedPull bool
}

// EventSink observes every rule transition of a machine, in dispatch
// order. Implementations must be cheap and must not call back into the
// machine; they run inside the rule, after the mutation commits to
// (T, G). A machine with no sink and no LogHook pays one branch per
// rule and allocates nothing — the non-observed hot path is free.
type EventSink interface {
	Emit(SinkEvent)
}

// EventLog is an EventSink that keeps every transition as an Event: the
// whole rule trace of a run on a machine that keeps none of its own (a
// trace.Recorder folds its history away), for offline checks such as
// serial.CheckOpacity. Attach it before the run and read it after: like
// every sink it is serialized by whatever serializes the machine.
type EventLog []Event

// Emit implements EventSink.
func (l *EventLog) Emit(e SinkEvent) {
	*l = append(*l, Event{Rule: e.Rule, Thread: e.Tx, TxName: e.TxName,
		Op: e.Op, Stamp: e.Stamp, UncommittedPull: e.UncommittedPull})
}

// AddEventSink registers a sink. Sinks fire in registration order,
// always after the LogHook (the write-ahead-log subscriber) — a single
// dispatch point per rule, so the WAL and any metrics layer can never
// disagree on rule entry ordering. Clone does not carry sinks: an
// exploration copy must not re-emit.
func (m *Machine) AddEventSink(s EventSink) {
	if s != nil {
		m.sinks = append(m.sinks, s)
	}
}

// Sinks returns the registered sinks in firing order.
func (m *Machine) Sinks() []EventSink {
	return append([]EventSink(nil), m.sinks...)
}

// SetSite labels this machine's sink events (e.g. the substrate name a
// shadow machine certifies). Empty by default.
func (m *Machine) SetSite(site string) { m.site = site }

// Site returns the machine's sink-event label.
func (m *Machine) Site() string { return m.site }

// dispatch delivers one successful rule transition to the attached
// LogHook (always first: durability precedes derived telemetry) and
// then to every registered EventSink, in registration order, under one
// monotonic sequence number. Rules call it after the mutation commits
// to (T, G) and before the self-check; whatever serializes the machine
// serializes the dispatch, so every subscriber sees the same total
// order — the serialization-witness property of the WAL is preserved
// and shared by the telemetry stream.
func (m *Machine) dispatch(e Event) {
	if m.hook == nil && len(m.sinks) == 0 {
		return // non-observed fast path: one branch, zero allocation
	}
	m.sinkSeq++
	if m.hook != nil {
		switch e.Rule {
		case RPush:
			m.hook.LogPush(e.Thread, e.TxName, e.Op)
		case RUnpush:
			m.hook.LogUnpush(e.Thread, e.Op)
		case RCmt:
			m.hook.LogCommit(e.Thread, e.TxName, e.Stamp)
		case RAbort:
			m.hook.LogAbort(e.Thread, e.TxName)
		}
	}
	if len(m.sinks) == 0 {
		return
	}
	se := SinkEvent{
		Seq:             m.sinkSeq,
		Site:            m.site,
		Rule:            e.Rule,
		Tx:              e.Thread,
		TxName:          e.TxName,
		Op:              e.Op,
		Stamp:           e.Stamp,
		UncommittedPull: e.UncommittedPull,
	}
	for _, s := range m.sinks {
		s.Emit(se)
	}
}
