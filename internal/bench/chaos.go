package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"pushpull/internal/chaos"
	"pushpull/internal/core"
	"pushpull/internal/lang"
	"pushpull/internal/obs"
	"pushpull/internal/sched"
	"pushpull/internal/serial"
	"pushpull/internal/spec"
	"pushpull/internal/stm/boost"
	"pushpull/internal/stm/htmsim"
	"pushpull/internal/stm/hybrid"
	"pushpull/internal/strategy"
	"pushpull/internal/trace"
	"pushpull/internal/wal"
)

// ChaosParams configures a fault-injection campaign: a seed sweep over
// every target, each run certified end to end.
type ChaosParams struct {
	// Targets to sweep; nil means ChaosTargets().
	Targets []string
	// Seeds is the number of plan seeds per target (BaseSeed,
	// BaseSeed+1, ...).
	Seeds    int
	BaseSeed int64
	Threads  int
	OpsEach  int
	Keys     int
	// Rate is the reference per-site fault probability; per-target plans
	// scale it per site (see ChaosPlanFor).
	Rate float64
	// WAL, when non-nil, makes the run durable: the recorder's shadow
	// machine (or the model machine) writes every global-log transition
	// ahead, and the substrate's commit path flushes it before
	// acknowledging. Crash campaigns (RunCrashOne) set this.
	WAL *wal.Log
	// Obs, when non-nil, streams the run into the observability suite:
	// every rule transition of the certifying shadow machine (or the
	// model machine), chaos injections, retry draws, scheduler
	// stalls/kills, and — on crash runs — WAL sync latency.
	Obs *obs.Suite
}

func (p ChaosParams) WithDefaults() ChaosParams {
	if p.Targets == nil {
		p.Targets = ChaosTargets()
	}
	if p.Seeds <= 0 {
		p.Seeds = 50
	}
	if p.BaseSeed == 0 {
		p.BaseSeed = 1
	}
	if p.Threads <= 0 {
		p.Threads = 4
	}
	if p.OpsEach <= 0 {
		p.OpsEach = 40
	}
	if p.Keys <= 0 {
		p.Keys = 16
	}
	if p.Rate <= 0 {
		p.Rate = 0.08
	}
	return p
}

// ChaosTargets lists the chaos-campaign targets: the five goroutine
// substrates, the hybrid runtime, the cooperative model under the
// chaos scheduler, the sharded engine with coordinator death and
// per-shard WAL crashes (both cross-shard commit paths: "shard" is the
// mutex coordinator, "shardseq" the deterministic sequencer), and the
// replicated failover target (primary death under faulty replication
// links, certified promotion).
func ChaosTargets() []string {
	return []string{"tl2", "pess", "boost", "htmsim", "dep", "hybrid", "model", "shard", "shardseq", "failover"}
}

// CrashTargets lists the crash-campaign targets: every single-machine
// target whose durable image is one WAL segment stream. The sharded
// engine crash-restarts inside its own chaos target instead
// (runChaosShard) — its image is multi-log (per-shard streams plus the
// coordinator log), which RunCrashOne's single-stream recovery
// interface cannot express.
func CrashTargets() []string {
	return []string{"tl2", "pess", "boost", "htmsim", "dep", "hybrid", "model"}
}

// ChaosPlanFor builds the fault plan a campaign uses for one target and
// seed — the reproduction recipe: rerunning the same target with the
// same plan replays the same injection decisions.
func ChaosPlanFor(target string, seed int64, rate float64) chaos.Plan {
	p := chaos.NewPlan(seed)
	switch target {
	case "tl2":
		p = p.WithRate(chaos.SiteTL2Read, rate/4).WithRate(chaos.SiteTL2Commit, rate)
	case "pess":
		p = p.WithRate(chaos.SitePessTimeout, rate)
	case "boost":
		p = p.WithRate(chaos.SiteBoostTimeout, rate)
	case "htmsim":
		p = p.WithRate(chaos.SiteHTMConflict, rate).
			WithRate(chaos.SiteHTMCapacity, rate/4).
			WithRate(chaos.SiteHTMCommit, rate)
	case "dep":
		p = p.WithRate(chaos.SiteDepConflict, rate/2)
	case "hybrid":
		p = p.WithRate(chaos.SiteHTMConflict, rate).
			WithRate(chaos.SiteHTMCapacity, rate/2).
			WithRate(chaos.SiteHTMCommit, rate).
			WithRate(chaos.SiteBoostTimeout, rate/4)
	case "model":
		p = p.WithRate(chaos.SiteSchedStall, rate).
			WithRate(chaos.SiteSchedKill, rate/20).WithBudget(chaos.SiteSchedKill, 1)
	}
	return p
}

// RunChaosOne runs one certified chaos run. Every path asserts full
// recovery: substrate runs certify each commit on the shadow machine
// and pass FinalCheck; the model run passes machine invariants, the
// commit-order serializability check, and the Env leak check.
func RunChaosOne(target string, seed int64, p ChaosParams) Outcome {
	p = p.WithDefaults()
	out := Outcome{Target: target, Seed: seed}
	switch target {
	case "shard", "shardseq":
		// The sharded engine derives per-shard injectors and its own
		// coordinator injector from the plan; it fills out.Plan and
		// out.Faults itself. Same sweep, same murder window on both: the
		// only difference is which cross-shard commit path runs.
		out.Err = runChaosShard(seed, p, &out, target == "shardseq")
	case "failover":
		// Replicated primary death and certified promotion; derives its
		// own plan (crash + link faults) and fills out.Plan itself.
		out.Err = runFailover(seed, p, &out)
	default:
		plan := ChaosPlanFor(target, seed, p.Rate)
		out.Plan = plan.String()
		out.Err = runTarget(target, seed, p, plan.Injector(), &out)
	}
	return out
}

// runTarget drives one single-machine target (a substrate, the hybrid
// runtime or the cooperative model) under the injector — the live run
// shared by the chaos and crash sweeps.
func runTarget(target string, seed int64, p ChaosParams, inj *chaos.Faults, out *Outcome) error {
	var err error
	switch target {
	case "tl2", "pess", "htmsim", "dep", "boost":
		err = runChaosRMW(target, seed, p, inj, out)
	case "hybrid":
		err = runChaosHybrid(seed, p, inj, out)
	case "model":
		err = runChaosModel(seed, p, inj, out)
	default:
		return fmt.Errorf("bench: unknown target %q", target)
	}
	out.Faults = inj.Stats()
	return err
}

// spawnWorkers runs the transaction closure across p.Threads
// goroutines, counting retry-budget exhaustions as give-ups and
// returning the first unexpected error.
func spawnWorkers(p ChaosParams, gaveUp *atomic.Uint64, txn func(g, i int, rng *rand.Rand) error) error {
	var wg sync.WaitGroup
	errCh := make(chan error, p.Threads)
	for g := 0; g < p.Threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < p.OpsEach; i++ {
				err := txn(g, i, rng)
				if err == nil {
					continue
				}
				if errors.Is(err, chaos.ErrRetriesExhausted) {
					gaveUp.Add(1)
					continue
				}
				errCh <- err
				return
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}

// attachWAL wires the write-ahead hook into a recorder when the params
// carry a log, returning the hook for the post-run I/O-error check.
func attachWAL(rec *trace.Recorder, p ChaosParams) *wal.MachineHook {
	if p.WAL == nil {
		return nil
	}
	hook := wal.NewMachineHook(p.WAL)
	rec.AttachWAL(hook)
	return hook
}

// durableOf avoids the typed-nil interface trap when no WAL is set.
func durableOf(p ChaosParams) core.Durable {
	if p.WAL == nil {
		return nil
	}
	return p.WAL
}

// walErr surfaces a real (non-crash) WAL I/O failure after a run.
func walErr(hook *wal.MachineHook) error {
	if hook == nil {
		return nil
	}
	return hook.Err()
}

// wireObs attaches the observability suite to one run's seams: the
// certifying recorder (site-labelled rule stream), the fault injector
// (injections by site), and the retry policy (depth/exhaustion). Nil
// suite means zero wiring — the uninstrumented paths are untouched.
func wireObs(p ChaosParams, rec *trace.Recorder, site string, inj *chaos.Faults, retry *chaos.RetryPolicy) {
	if p.Obs == nil {
		return
	}
	if rec != nil {
		rec.SetSite(site)
		rec.AttachSink(p.Obs)
	}
	if inj != nil {
		inj.SetObserver(func(s chaos.Site) { p.Obs.Metrics.FaultFired(string(s)) })
	}
	if retry != nil {
		retry.OnRetry = p.Obs.Metrics.RetryObserved
	}
}

// schedObserver avoids the typed-nil interface trap when no suite is
// attached.
func schedObserver(p ChaosParams) sched.Observer {
	if p.Obs == nil {
		return nil
	}
	return p.Obs.Metrics
}

// runChaosRMW drives a goroutine substrate (tl2/pess/htmsim/dep/boost)
// with the shared read-modify-write workload under injection,
// certified.
func runChaosRMW(target string, seed int64, p ChaosParams, inj *chaos.Faults, out *Outcome) error {
	rec := trace.NewRecorder(CertRegistryFor(target))
	hook := attachWAL(rec, p)
	retry := chaos.Default(seed)
	wireObs(p, rec, target, inj, retry)
	txn, stats, err := rmwSubstrate(target, p.Keys, seed, seams{rec, inj, retry, durableOf(p)})
	if err != nil {
		return err
	}
	var gaveUp atomic.Uint64
	err = spawnWorkers(p, &gaveUp, func(g, i int, rng *rand.Rand) error {
		return txn(rng.Intn(p.Keys), rng.Intn(100) < 30, 2)
	})
	out.Commits, out.Aborts, _ = stats()
	out.GaveUp = gaveUp.Load()
	if err != nil {
		return err
	}
	if err := walErr(hook); err != nil {
		return err
	}
	return rec.FinalCheck()
}

// runChaosHybrid drives the Section 7 hybrid under capacity/conflict
// injection: the run must stay certified across graceful degradation to
// boosting-plus-lock.
func runChaosHybrid(seed int64, p ChaosParams, inj *chaos.Faults, out *Outcome) error {
	b := boost.NewRuntime()
	b.Recorder = trace.NewRecorder(CertRegistryFor("hybrid"))
	hook := attachWAL(b.Recorder, p)
	b.Injector, b.Retry = inj, chaos.Default(seed)
	wireObs(p, b.Recorder, "hybrid", inj, b.Retry)
	b.Durable = durableOf(p)
	h := htmsim.New(16)
	h.Name = "htm"
	h.Injector = inj
	rt := hybrid.New(b, h)
	rt.DegradeAfter = 8
	rt.Durable = durableOf(p)
	sl := boost.NewSet(b, "skiplist", seed)
	ht := boost.NewMap(b, "hashT", seed+1)
	var gaveUp atomic.Uint64

	err := spawnWorkers(p, &gaveUp, func(g, i int, rng *rand.Rand) error {
		// Bounded key range: shadow-machine certification clones ADT
		// state per op, so unbounded unique keys would go quadratic.
		foo := int64(rng.Intn(p.Keys * 4))
		branchX := rng.Intn(2) == 0
		return rt.Atomic(fmt.Sprintf("s7-%d", foo), func(tx *hybrid.Tx) error {
			if _, err := sl.Add(tx.Boosted(), foo); err != nil {
				return err
			}
			tx.HTMSection(func(htx *htmsim.Tx) error { // size++
				v, err := htx.Read(0)
				if err != nil {
					return err
				}
				return htx.Write(0, v+1)
			})
			if _, _, err := ht.Put(tx.Boosted(), foo, foo*10); err != nil {
				return err
			}
			tx.HTMSection(func(htx *htmsim.Tx) error { // x++ or y++
				addr := 2
				if branchX {
					addr = 1
				}
				v, err := htx.Read(addr)
				if err != nil {
					return err
				}
				return htx.Write(addr, v+1)
			})
			return nil
		})
	})
	s := rt.Stats()
	out.Commits, out.Aborts, out.Degraded = s.Commits, s.Boost.Aborts, s.Degraded
	out.GaveUp = gaveUp.Load()
	if err != nil {
		return err
	}
	if err := walErr(hook); err != nil {
		return err
	}
	if err := b.Recorder.FinalCheck(); err != nil {
		return err
	}
	// Conservation across degradation: size must equal the committed
	// transaction count (each commit increments word 0 exactly once).
	want := int64(s.Commits)
	if got := h.ReadNoTx(0); got != want {
		return fmt.Errorf("hybrid: size=%d after %d commits (lost updates)", got, want)
	}
	return nil
}

// runChaosModel drives mixed strategy drivers on the cooperative
// machine under the chaos scheduler (stalls + forced thread death),
// then checks machine invariants, serializability, and lock/token
// leaks.
func runChaosModel(seed int64, p ChaosParams, inj *chaos.Faults, out *Outcome) error {
	reg := Registry()
	m := core.NewMachine(reg, core.Options{Mode: spec.MoverHybrid, EnforceGray: true})
	var hook *wal.MachineHook
	if p.WAL != nil {
		hook = wal.NewMachineHook(p.WAL)
		m.SetLogHook(hook)
	}
	env := strategy.NewEnv()
	rng := rand.New(rand.NewSource(seed))
	cfg := strategy.Config{Retry: chaos.Default(seed)}
	if p.Obs != nil {
		m.SetSite("model")
		m.AddEventSink(p.Obs)
		cfg.Retry.OnRetry = p.Obs.Metrics.RetryObserved
		inj.SetObserver(func(s chaos.Site) { p.Obs.Metrics.FaultFired(string(s)) })
	}
	kinds := []string{"boosting", "optimistic", "dependent", "matveev"}

	var drivers []strategy.Driver
	for i := 0; i < p.Threads; i++ {
		kind := kinds[i%len(kinds)]
		th := m.Spawn(fmt.Sprintf("%s%d", kind, i))
		var txns []lang.Txn
		for j := 0; j < 4; j++ {
			txns = append(txns, genTxn(rng, fmt.Sprintf("t%d_%d", i, j),
				ModelParams{Keys: p.Keys, ReadPct: 30, OpsPerTxn: 3}))
		}
		d, err := NewDriver(kind, th, txns, cfg, env)
		if err != nil {
			return err
		}
		drivers = append(drivers, d)
	}

	res, err := sched.RunChaosObserved(m, drivers, seed, 400_000, inj, durableOf(p), schedObserver(p))
	out.Kills, out.Stalls = res.Kills, res.Stalls
	for _, d := range drivers {
		st := d.Stats()
		out.Commits += uint64(st.Commits)
		out.Aborts += uint64(st.Aborts)
		out.GaveUp += uint64(st.GaveUp)
	}
	// Livelock/deadlock under heavy injection is a controlled halt, not a
	// recovery failure (RunChaos has already released everything): note it
	// and certify the survivors like any other run. Any other error is a
	// genuine violation.
	if err != nil {
		if !errors.Is(err, sched.ErrLivelock) && !errors.Is(err, sched.ErrDeadlock) {
			return err
		}
		out.Halted = true
	}
	if err := walErr(hook); err != nil {
		return err
	}
	if err := m.Verify(); err != nil {
		return fmt.Errorf("machine invariants: %w", err)
	}
	if rep := serial.CheckCommitOrder(m); !rep.Serializable {
		return fmt.Errorf("not serializable: %s", rep.Reason)
	}
	if err := env.LeakCheck(); err != nil {
		return err
	}
	return nil
}
