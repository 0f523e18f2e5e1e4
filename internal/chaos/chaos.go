// Package chaos is the deterministic fault-injection layer: a seedable
// Plan of per-site probabilities (or fixed scripts) drives an Injector
// that substrates, schedulers, and drivers consult at their fault
// sites — spurious/capacity/conflict aborts in the word STMs, lock
// timeouts in the pessimistic runtimes, stalled steps and forced
// mid-transaction thread death in the cooperative scheduler.
//
// The point (ISSUE: §4, §6.5 of the paper) is that the rewind fragment
// — UNPUSH, UNPULL, UNAPP — exists to model aborts and retries, and is
// only fully exercised when something goes wrong. Injected faults force
// every recovery path, and every chaos run ends in certification: the
// machine invariants, the commit-order serializability check, and the
// shadow-machine recorder must all pass with faults enabled.
//
// Determinism: the decision at a site's n-th visit is a pure hash of
// (plan seed, site, n), so a campaign is reproducible from its printed
// seed regardless of which goroutine reaches the site (per-site visit
// order is fixed by the workload; cross-site interleaving does not
// matter). Fixed scripts override the hash per visit for exact-replay
// tests.
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Site names one instrumented fault-injection point.
type Site string

// Injection sites.
const (
	// SiteHTMConflict injects a spurious conflict abort on a speculative
	// HTM read/write (a coherence invalidation killing the line).
	SiteHTMConflict Site = "htm/conflict"
	// SiteHTMCapacity injects a capacity abort on a speculative HTM
	// read/write (cache-geometry overflow).
	SiteHTMCapacity Site = "htm/capacity"
	// SiteHTMCommit injects a spurious abort at the HTM commit instant
	// (the lock-elision subscription firing).
	SiteHTMCommit Site = "htm/commit"
	// SiteTL2Read injects a read-validation conflict in TL2.
	SiteTL2Read Site = "tl2/read"
	// SiteTL2Commit injects a commit-time validation conflict in TL2.
	SiteTL2Commit Site = "tl2/commit"
	// SitePessTimeout injects a lock-acquire timeout (wait-die "die") in
	// the 2PL memory.
	SitePessTimeout Site = "pess/timeout"
	// SiteBoostTimeout injects an abstract-lock timeout in the boosting
	// runtime.
	SiteBoostTimeout Site = "boost/timeout"
	// SiteDepConflict injects a read conflict in the dependent-
	// transactions memory, forcing rollbacks and cascades.
	SiteDepConflict Site = "dep/conflict"
	// SiteSchedStall stalls the scheduled driver for a turn (a delayed
	// step; the step budget is still consumed).
	SiteSchedStall Site = "sched/stall"
	// SiteSchedKill kills the scheduled driver mid-transaction: its
	// in-flight transaction is rewound via UNPUSH/UNPULL/UNAPP and its
	// Env locks and tokens released; the driver is retired.
	SiteSchedKill Site = "sched/kill"
	// SiteWALAppend is the process-death site: the write-ahead log
	// consults it on every record append, and a firing kills the
	// "process" at exactly that append — everything not yet synced is
	// lost (possibly with a torn or bit-flipped tail, see CrashMode).
	// Deterministic crashes are scheduled with Plan.WithCrash; the site
	// also honors ordinary rates/scripts/budgets for probabilistic
	// sweeps.
	SiteWALAppend Site = "wal/append"
	// SiteCoordPrepared is the cross-shard coordinator's death site
	// between prepare and the durable commit decision: every participant
	// branch is PUSHed (prepared) but no decision record exists, so
	// recovery must presume abort and discard all branches consistently.
	SiteCoordPrepared Site = "coord/prepared"
	// SiteCoordCommit is the coordinator's death site immediately after
	// the commit decision is durable but before any branch commit is
	// released: recovery must roll the transaction forward on every
	// participant from the journaled write-sets.
	SiteCoordCommit Site = "coord/commit"
)

// Sites lists every injection site, for sweep tooling.
func Sites() []Site {
	return []Site{SiteHTMConflict, SiteHTMCapacity, SiteHTMCommit,
		SiteTL2Read, SiteTL2Commit, SitePessTimeout, SiteBoostTimeout,
		SiteDepConflict, SiteSchedStall, SiteSchedKill, SiteWALAppend,
		SiteCoordPrepared, SiteCoordCommit}
}

// CrashMode selects what the simulated crash leaves on "disk" past the
// synced prefix of the write-ahead log.
type CrashMode int

// Crash modes.
const (
	// CrashClean loses exactly the unsynced suffix: the surviving image
	// is the synced prefix, record-aligned.
	CrashClean CrashMode = iota
	// CrashTorn additionally persists an arbitrary prefix of the
	// unsynced bytes (including the in-flight record) — the torn-write
	// case recovery must truncate, not fatally reject.
	CrashTorn
	// CrashBitflip flips one bit inside the synced image — latent media
	// corruption; recovery must truncate at the first bad checksum.
	CrashBitflip
)

func (m CrashMode) String() string {
	switch m {
	case CrashClean:
		return "clean"
	case CrashTorn:
		return "torn"
	case CrashBitflip:
		return "bitflip"
	default:
		return "badmode"
	}
}

// Injector is consulted at every instrumented fault site. A nil
// Injector field in a substrate means no injection.
type Injector interface {
	// Fire reports whether to inject a fault at site on this visit.
	Fire(site Site) bool
}

// Plan is a reproducible fault schedule: a seed, per-site firing
// probabilities, optional per-site fixed scripts (consumed by visit
// index, overriding the probabilistic decision), and optional per-site
// injection budgets.
type Plan struct {
	Seed   int64
	Rates  map[Site]float64
	Script map[Site][]bool
	Budget map[Site]int // max injections per site; 0 = unlimited
	// CrashAppend schedules a deterministic process death at the n-th
	// (1-based) visit to SiteWALAppend; 0 means no scheduled crash. It
	// overrides rates and scripts for that visit, so a failing crash
	// plan replays exactly like a fault plan.
	CrashAppend uint64
	// CrashMode selects the surviving log image (clean/torn/bitflip).
	CrashMode CrashMode
}

// NewPlan returns an empty plan (no faults) with the given seed.
func NewPlan(seed int64) Plan {
	return Plan{Seed: seed, Rates: map[Site]float64{}, Script: map[Site][]bool{}, Budget: map[Site]int{}}
}

// WithRate sets a site's firing probability and returns the plan.
func (p Plan) WithRate(site Site, rate float64) Plan {
	if p.Rates == nil {
		p.Rates = map[Site]float64{}
	}
	p.Rates[site] = rate
	return p
}

// WithScript fixes a site's decisions for its first len(script) visits.
func (p Plan) WithScript(site Site, script []bool) Plan {
	if p.Script == nil {
		p.Script = map[Site][]bool{}
	}
	p.Script[site] = script
	return p
}

// WithBudget caps a site's total injections.
func (p Plan) WithBudget(site Site, n int) Plan {
	if p.Budget == nil {
		p.Budget = map[Site]int{}
	}
	p.Budget[site] = n
	return p
}

// WithCrash schedules a deterministic process death at the n-th WAL
// append (1-based) with the given surviving-image mode.
func (p Plan) WithCrash(n uint64, mode CrashMode) Plan {
	p.CrashAppend = n
	p.CrashMode = mode
	return p
}

// ForShard derives shard i's plan (of n shards) from a base plan: the
// same rates, scripts, and budgets under a shard-distinct seed, so the
// shards' fault streams are independent but the whole sharded run stays
// reproducible from one printed seed. A scheduled WAL crash is kept on
// exactly one seed-chosen shard — a process dies once, not once per
// shard — and the engine propagates that death to the other logs. With
// one shard the plan is returned unchanged: a 1-shard engine is the
// plain single-machine server, and a seeded crash schedule must mean
// the same run there as it does on a bare backend.
func (p Plan) ForShard(i, n int) Plan {
	if n <= 1 {
		return p
	}
	q := p
	q.Seed = int64(uint64(p.Seed)*0x9e3779b97f4a7c15 + uint64(i)*0x85ebca6b + 1)
	if p.CrashAppend > 0 {
		target := int(Hash01(p.Seed, "shard/crashpick", 0) * float64(n))
		if target >= n {
			target = n - 1
		}
		if i != target {
			q.CrashAppend = 0
		}
	}
	return q
}

// String renders the plan compactly — the reproduction recipe a chaos
// report prints.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan{seed=%d", p.Seed)
	sites := make([]string, 0, len(p.Rates))
	for s := range p.Rates {
		sites = append(sites, string(s))
	}
	sort.Strings(sites)
	for _, s := range sites {
		fmt.Fprintf(&b, " %s=%g", s, p.Rates[Site(s)])
		if n, ok := p.Budget[Site(s)]; ok && n > 0 {
			fmt.Fprintf(&b, "(cap %d)", n)
		}
	}
	for s, sc := range p.Script {
		fmt.Fprintf(&b, " %s=script[%d]", s, len(sc))
	}
	if p.CrashAppend > 0 {
		fmt.Fprintf(&b, " crash@%d(%s)", p.CrashAppend, p.CrashMode)
	}
	b.WriteString("}")
	return b.String()
}

// SiteCount is one site's visit/injection tally.
type SiteCount struct {
	Visits   uint64
	Injected uint64
}

// Stats is a snapshot of injector activity.
type Stats struct {
	Counts map[Site]SiteCount
}

// TotalInjected sums injections across sites.
func (s Stats) TotalInjected() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c.Injected
	}
	return n
}

// TotalVisits sums site visits.
func (s Stats) TotalVisits() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c.Visits
	}
	return n
}

// String renders the tally sorted by site name.
func (s Stats) String() string {
	sites := make([]string, 0, len(s.Counts))
	for site := range s.Counts {
		sites = append(sites, string(site))
	}
	sort.Strings(sites)
	parts := make([]string, 0, len(sites))
	for _, site := range sites {
		c := s.Counts[Site(site)]
		parts = append(parts, fmt.Sprintf("%s %d/%d", site, c.Injected, c.Visits))
	}
	if len(parts) == 0 {
		return "no faults"
	}
	return strings.Join(parts, ", ")
}

// Faults is the concurrency-safe deterministic Injector a Plan builds.
type Faults struct {
	mu       sync.Mutex
	plan     Plan
	counts   map[Site]SiteCount
	observer func(Site)
}

// SetObserver installs a callback invoked once per injected fault with
// the firing site — the telemetry seam (injection decisions are
// unchanged; determinism is untouched). The callback runs under the
// injector's mutex and must not call back into it. Set before the run.
func (f *Faults) SetObserver(fn func(Site)) {
	f.mu.Lock()
	f.observer = fn
	f.mu.Unlock()
}

// NewInjector builds the plan's injector.
func NewInjector(p Plan) *Faults {
	return &Faults{plan: p, counts: make(map[Site]SiteCount)}
}

// Injector is shorthand for NewInjector(p).
func (p Plan) Injector() *Faults { return NewInjector(p) }

// Fire implements Injector: scripted decisions first, then the seeded
// hash against the site's rate, bounded by the site's budget.
func (f *Faults) Fire(site Site) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.counts[site]
	visit := c.Visits
	c.Visits++
	fire := false
	if site == SiteWALAppend && f.plan.CrashAppend > 0 {
		// Scheduled process death: exactly the n-th append, unbudgeted.
		if visit+1 == f.plan.CrashAppend {
			c.Injected++
			f.counts[site] = c
			if f.observer != nil {
				f.observer(site)
			}
			return true
		}
		f.counts[site] = c
		return false
	}
	if script, ok := f.plan.Script[site]; ok && visit < uint64(len(script)) {
		fire = script[visit]
	} else if rate := f.plan.Rates[site]; rate > 0 {
		fire = hash01(f.plan.Seed, site, visit) < rate
	}
	if fire {
		if cap := f.plan.Budget[site]; cap > 0 && c.Injected >= uint64(cap) {
			fire = false
		}
	}
	if fire {
		c.Injected++
		if f.observer != nil {
			f.observer(site)
		}
	}
	f.counts[site] = c
	return fire
}

// Injected returns a site's injection count so far.
func (f *Faults) Injected(site Site) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[site].Injected
}

// Stats snapshots the visit/injection tallies.
func (f *Faults) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[Site]SiteCount, len(f.counts))
	for s, c := range f.counts {
		out[s] = c
	}
	return Stats{Counts: out}
}

// Plan returns the plan the injector was built from.
func (f *Faults) Plan() Plan { return f.plan }

// Hash01 maps (seed, site, visit) to a uniform float64 in [0, 1) — the
// shared determinism backbone, exported so crash tooling (torn-write
// lengths, bit-flip offsets, per-seed crash points) derives its choices
// from the same scheme a printed plan replays.
func Hash01(seed int64, site Site, visit uint64) float64 {
	return hash01(seed, site, visit)
}

// hash01 maps (seed, site, visit) to a uniform float64 in [0, 1) via a
// splitmix64 finalizer — the determinism backbone: no shared RNG whose
// draw order would depend on goroutine interleaving.
func hash01(seed int64, site Site, visit uint64) float64 {
	h := uint64(seed) ^ fnv64(string(site))
	h = h*0x9e3779b97f4a7c15 + visit + 1
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
