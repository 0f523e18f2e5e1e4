package bench

import (
	"fmt"

	"pushpull/internal/adt"
	"pushpull/internal/chaos"
	"pushpull/internal/recovery"
	"pushpull/internal/spec"
	"pushpull/internal/wal"
)

// This file is the crash-recovery run: every single-stream target runs
// with a write-ahead log attached and a deterministic process death
// scheduled at some WAL append; afterwards the durable image — synced
// prefix, possibly torn or bit-flipped — is recovered and the
// recovered committed prefix is re-certified from scratch on a fresh
// shadow machine. A run passes only if the live run was certified AND
// the recovered prefix replays cleanly (machine invariants,
// commit-order serializability, return-value validation) with every
// pushed-but-uncommitted transaction discarded.

// CrashPolicyFor varies the sync policy across seeds so a sweep covers
// every durability mode, including the SyncNever fast path (where a
// crash legitimately loses everything unsynced).
func CrashPolicyFor(seed int64) wal.SyncPolicy {
	policies := []wal.SyncPolicy{wal.SyncEveryRecord, wal.SyncOnCommit, wal.SyncGroup, wal.SyncNever}
	return policies[uint64(seed)%uint64(len(policies))]
}

// estimatedAppends is the rough WAL record count a target's workload
// produces, used only to place the scheduled crash somewhere inside
// the run. Overshooting is harmless: the crash never fires and the
// run degenerates to full-log recovery — itself a useful case.
func estimatedAppends(target string, p ChaosParams) uint64 {
	perTxn := map[string]int{
		"tl2": 3, "pess": 3, "htmsim": 3, "dep": 3, "boost": 3,
		"hybrid": 6, "model": 5,
	}[target]
	txns := p.Threads * p.OpsEach
	if target == "model" {
		txns = p.Threads * 4
	}
	n := uint64(txns * perTxn)
	if n == 0 {
		n = 1
	}
	return n
}

// CrashPlanFor builds the reproduction recipe for one crash run: the
// target's usual fault plan (at half rate, so abort paths still write
// UNPUSH records into the log) plus a deterministic crash whose append
// index and surviving-image mode are pure functions of the seed.
func CrashPlanFor(target string, seed int64, p ChaosParams) chaos.Plan {
	p = p.WithDefaults()
	frac := chaos.Hash01(seed, chaos.SiteWALAppend, 0)
	n := 1 + uint64(frac*float64(estimatedAppends(target, p)))
	mode := chaos.CrashMode(uint64(seed) % 3)
	return ChaosPlanFor(target, seed, p.Rate/2).WithCrash(n, mode)
}

// CertRegistryFor rebuilds, from scratch, the specification registry
// the live run certified against — recovery must not share any state
// with the crashed process.
func CertRegistryFor(target string) *spec.Registry {
	reg := spec.NewRegistry()
	switch target {
	case "tl2", "pess", "htmsim", "dep":
		reg.Register("mem", adt.Register{})
	case "boost":
		reg.Register("ht", adt.Map{})
	case "hybrid":
		reg.Register("skiplist", adt.Set{})
		reg.Register("hashT", adt.Map{})
		reg.Register("htm", adt.Register{})
	case "model":
		return Registry()
	}
	return reg
}

// CrashDetail is what a crash-recovery run adds to its Outcome.
type CrashDetail struct {
	// Policy is the WAL sync policy the seed selected.
	Policy string `json:"policy"`
	// Crashed reports whether the scheduled death actually fired (a
	// short run may finish before reaching the append index).
	Crashed bool `json:"crashed"`
	// Recovered is the number of committed transactions in the
	// recovered prefix (Outcome.Commits, the live run's count, bounds
	// it); Discarded the pushed-but-uncommitted transactions dropped;
	// Truncated whether a torn/corrupt tail was cut.
	Recovered int  `json:"recovered"`
	Discarded int  `json:"discarded"`
	Truncated bool `json:"truncated"`
	// Segments is the durable WAL image the run left behind — what
	// recovery replayed (and what idempotence tests replay again);
	// DurableBytes is its size.
	Segments     [][]byte `json:"-"`
	DurableBytes int      `json:"durable_bytes"`
	// RunErr is a live-run violation (the crash itself must be
	// transparent to the running substrate). CertErr is a recovery
	// certification failure. Either fails the run (Outcome.Err).
	RunErr  string `json:"run_err,omitempty"`
	CertErr string `json:"cert_err,omitempty"`
}

// RunCrashOne executes one crash-recovery run: live chaos run with a
// durable WAL and a scheduled process death, then recovery and
// re-certification of the durable image.
func RunCrashOne(target string, seed int64, p ChaosParams) Outcome {
	p = p.WithDefaults()
	plan := CrashPlanFor(target, seed, p)
	inj := plan.Injector()
	pol := CrashPolicyFor(seed)
	opts := wal.Options{Policy: pol, GroupEvery: 8, SegmentBytes: 8 << 10, Chaos: inj}
	if p.Obs != nil {
		opts.SyncObserver = p.Obs.Metrics.WALSyncObserved
	}
	log := wal.MustOpen(opts)
	p.WAL = log

	d := &CrashDetail{Policy: pol.String()}
	out := Outcome{Target: target, Seed: seed, Plan: plan.String(), CrashDetail: d}
	runErr := runTarget(target, seed, p, inj, &out)
	d.Crashed = log.Crashed()
	d.Segments = log.Segments()
	for _, seg := range d.Segments {
		d.DurableBytes += len(seg)
	}

	rep, certErr := recovery.RecoverAndCertify(d.Segments, CertRegistryFor(target))
	d.Recovered = len(rep.State.Txns)
	d.Discarded = rep.Discarded
	d.Truncated = rep.Truncated != nil
	if certErr == nil && uint64(d.Recovered) > out.Commits {
		certErr = fmt.Errorf("recovered %d txns from a run with %d commits", d.Recovered, out.Commits)
	}
	d.RunErr, d.CertErr = errText(runErr), errText(certErr)
	out.Err = certErr
	if runErr != nil {
		out.Err = fmt.Errorf("live run: %w", runErr)
	}
	return out
}
