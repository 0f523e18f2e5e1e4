// Package pushpull is an executable reproduction of "The Push/Pull
// Model of Transactions" (Koskinen & Parkinson, PLDI 2015): a semantic
// model in which concurrent transactions PUSH their effects into a
// shared operation log, PULL the effects of other (possibly
// uncommitted) transactions into their local view, and rewind with
// UNPUSH/UNPULL/UNAPP — each rule guarded by commutativity (left-mover)
// and sequential-specification side conditions that together guarantee
// serializability (the paper's Theorem 5.17).
//
// The package is a facade over the implementation layers:
//
//   - the machine: Push/Pull threads, logs and the seven rules with all
//     criteria checked (internal/core over internal/spec and
//     internal/lang);
//   - reference semantics and checkers: the atomic machine (Figure 3),
//     commit-order serializability, serial-witness search, opacity
//     (internal/atomicsem, internal/serial);
//   - drivers: the Section 6 rule-usage patterns — optimistic,
//     boosting, lazy-pessimistic, irrevocable, dependent — runnable
//     under random, round-robin, or exhaustive schedulers
//     (internal/strategy, internal/sched);
//   - substrates: real goroutine-concurrent TMs (TL2, 2PL, boosting
//     over a lazy concurrent skiplist, simulated HTM, irrevocability,
//     dependent transactions, the Section 7 boosting+HTM hybrid), each
//     instrumentable with a shadow-machine certifier (internal/stm/...,
//     internal/trace).
//
// Quickstart:
//
//	reg := pushpull.StandardRegistry()
//	m := pushpull.NewMachine(reg, pushpull.DefaultOptions())
//	t := m.Spawn("t1")
//	txn := pushpull.MustParseTxn(`tx hello { ht.put(1, 10); v := ht.get(1); }`)
//	_ = m.Begin(t, txn, nil)
//	for _, s := range m.Steps(t) { _, _ = m.App(t, s); break }
//	...
//	rep := pushpull.CheckCommitOrder(m)
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// paper-artifact index.
package pushpull

import (
	"pushpull/internal/adt"
	"pushpull/internal/atomicsem"
	"pushpull/internal/core"
	"pushpull/internal/lang"
	"pushpull/internal/sched"
	"pushpull/internal/serial"
	"pushpull/internal/spec"
	"pushpull/internal/strategy"
	"pushpull/internal/trace"
)

// Core semantic types.
type (
	// Registry binds object instance names to sequential specifications.
	Registry = spec.Registry
	// Op is an operation record ⟨m, σ1, σ2, id⟩.
	Op = spec.Op
	// Log is an ordered operation list.
	Log = spec.Log
	// MoverMode selects static/hybrid/dynamic left-mover checking.
	MoverMode = spec.MoverMode
	// Composite is a product state over all registered instances.
	Composite = spec.Composite
)

// Machine types.
type (
	// Machine is the Push/Pull machine (T, G) with the Figure 5 rules.
	Machine = core.Machine
	// Thread is one machine thread {c, σ, L}.
	Thread = core.Thread
	// Options configures a machine.
	Options = core.Options
	// CriterionError names a violated rule side-condition.
	CriterionError = core.CriterionError
	// CommitRecord summarizes one committed transaction.
	CommitRecord = core.CommitRecord
	// Event is one recorded rule application.
	Event = core.Event
	// Rule names the Push/Pull reductions.
	Rule = core.Rule
	// SinkEvent is one rule transition delivered to an EventSink.
	SinkEvent = core.SinkEvent
	// EventSink observes every rule transition (the telemetry seam).
	EventSink = core.EventSink
	// EventLog is an EventSink keeping a run's whole rule trace.
	EventLog = core.EventLog
)

// Language types.
type (
	// Txn is a named transaction tx c.
	Txn = lang.Txn
	// Code is the command language of Section 3.
	Code = lang.Code
	// Stack is the thread-local stack σ.
	Stack = lang.Stack
	// Step is one element of step(c).
	Step = lang.Step
)

// Checker and driver types.
type (
	// Report is a serializability verdict with diagnostics.
	Report = serial.Report
	// OpacityViolation is one break of the opaque fragment (§6.1).
	OpacityViolation = serial.OpacityViolation
	// Driver is a cooperative §6 transaction executor.
	Driver = strategy.Driver
	// DriverConfig tunes drivers.
	DriverConfig = strategy.Config
	// Env is the coordination state drivers share.
	Env = strategy.Env
	// Recorder certifies real TM substrates on a shadow machine.
	Recorder = trace.Recorder
	// OpRecord is one logical operation observed in a substrate.
	OpRecord = trace.OpRecord
	// AtomicResult is a big-step outcome of the Figure 3 machine.
	AtomicResult = atomicsem.Result
)

// Mover modes.
const (
	MoverStatic  = spec.MoverStatic
	MoverHybrid  = spec.MoverHybrid
	MoverDynamic = spec.MoverDynamic
)

// Rules, as recorded in event traces.
const (
	RApp    = core.RApp
	RUnapp  = core.RUnapp
	RPush   = core.RPush
	RUnpush = core.RUnpush
	RPull   = core.RPull
	RUnpull = core.RUnpull
	RCmt    = core.RCmt
	RBegin  = core.RBegin
	REnd    = core.REnd
	RAbort  = core.RAbort
)

// Local-log flags.
const (
	Npshd = core.Npshd
	Pshd  = core.Pshd
	Pld   = core.Pld
)

// Absent is the sentinel "no value" result used by map/queue
// specifications (the surface syntax literal `absent`).
const Absent = spec.Absent

// NewRegistry returns an empty specification registry.
func NewRegistry() *Registry { return spec.NewRegistry() }

// StandardRegistry returns a registry with the object set used across
// the paper's examples: a word memory "mem" (register), a set "set", a
// hashtable "ht" (map), a counter "ctr", and a queue "q".
func StandardRegistry() *Registry {
	r := spec.NewRegistry()
	r.Register("mem", adt.Register{})
	r.Register("set", adt.Set{})
	r.Register("ht", adt.Map{})
	r.Register("ctr", adt.Counter{})
	r.Register("q", adt.Queue{})
	return r
}

// NewMachine builds a Push/Pull machine over the registry.
func NewMachine(reg *Registry, opts Options) *Machine { return core.NewMachine(reg, opts) }

// DefaultOptions enables gray criteria and event recording in hybrid
// mover mode.
func DefaultOptions() Options { return core.DefaultOptions() }

// ParseTxn parses one transaction in the surface syntax.
func ParseTxn(src string) (Txn, error) { return lang.ParseTxn(src) }

// MustParseTxn is ParseTxn for trusted literals; it panics on error.
func MustParseTxn(src string) Txn { return lang.MustParseTxn(src) }

// ParseProgram parses a sequence of transactions.
func ParseProgram(src string) ([]Txn, error) { return lang.ParseProgram(src) }

// Validate statically checks a transaction against a registry:
// object/method existence, arities, and definitely-unbound variable
// reads.
func Validate(reg *Registry, txn Txn) []lang.ValidationError { return lang.Validate(reg, txn) }

// ValidateProgram validates every transaction in a program.
func ValidateProgram(reg *Registry, txns []Txn) []lang.ValidationError {
	return lang.ValidateProgram(reg, txns)
}

// CheckCommitOrder verifies Theorem 5.17's simulation instance for a
// finished run: ⌊G⌋gCmt ≼ the commit-order serial log.
func CheckCommitOrder(m *Machine) Report { return serial.CheckCommitOrder(m) }

// FindSerialWitness searches all serial orders of the committed
// transactions for one explaining the run (bounded by maxTxns).
func FindSerialWitness(m *Machine, maxTxns int) (order []string, ok, exhausted bool) {
	return serial.FindSerialWitness(m, maxTxns)
}

// CheckOpacity returns the strict opaque-fragment violations of a rule
// trace (§6.1): every PULL of a then-uncommitted operation.
func CheckOpacity(events []Event) []OpacityViolation { return serial.CheckOpacity(events) }

// CheckOpacityRelaxed applies §6.1's commutative-pull relaxation.
func CheckOpacityRelaxed(reg *Registry, mode MoverMode, events []Event) []OpacityViolation {
	return serial.CheckOpacityRelaxed(reg, mode, events)
}

// RunAtomic executes a transaction on the Figure 3 atomic machine.
func RunAtomic(reg *Registry, txn Txn, sigma Stack, l Log) (AtomicResult, bool) {
	return atomicsem.RunTxn(reg, txn, sigma, l)
}

// NewEnv returns fresh driver coordination state (lock table, tokens).
func NewEnv() *Env { return strategy.NewEnv() }

// NewOptimistic builds a §6.2 optimistic driver (TL2 pattern).
func NewOptimistic(name string, t *Thread, txns []Txn, cfg DriverConfig, env *Env) Driver {
	return strategy.NewOptimistic(name, t, txns, cfg, env)
}

// NewBoosting builds a §6.3 boosting driver (Figure 2 pattern).
func NewBoosting(name string, t *Thread, txns []Txn, cfg DriverConfig, env *Env) Driver {
	return strategy.NewBoosting(name, t, txns, cfg, env)
}

// NewMatveevShavit builds a §6.3 lazy-pessimistic driver.
func NewMatveevShavit(name string, t *Thread, txns []Txn, cfg DriverConfig, env *Env) Driver {
	return strategy.NewMatveevShavit(name, t, txns, cfg, env)
}

// NewIrrevocable builds a §6.4 irrevocable driver.
func NewIrrevocable(name string, t *Thread, txns []Txn, cfg DriverConfig, env *Env) Driver {
	return strategy.NewIrrevocable(name, t, txns, cfg, env)
}

// NewDependent builds a §6.5 dependent-transactions driver.
func NewDependent(name string, t *Thread, txns []Txn, cfg DriverConfig, env *Env) Driver {
	return strategy.NewDependent(name, t, txns, cfg, env)
}

// RunRandom interleaves drivers by seeded random selection.
func RunRandom(m *Machine, drivers []Driver, seed int64, maxSteps int) error {
	return sched.RunRandom(m, drivers, seed, maxSteps)
}

// RunRoundRobin interleaves drivers cyclically.
func RunRoundRobin(m *Machine, drivers []Driver, seed int64, maxSteps int) error {
	return sched.RunRoundRobin(m, drivers, seed, maxSteps)
}

// Explore enumerates all scheduler interleavings (drivers must be
// Deterministic), invoking check at every terminal state.
func Explore(m *Machine, env *Env, drivers []Driver, maxDepth int, check func(*Machine) error) (sched.ExploreResult, error) {
	return sched.Explore(m, env, drivers, maxDepth, check)
}

// NewRecorder builds a shadow-machine certifier for real TM substrates.
func NewRecorder(reg *Registry) *Recorder { return trace.NewRecorder(reg) }
