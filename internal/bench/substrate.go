package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"pushpull/internal/chaos"
	"pushpull/internal/core"
	"pushpull/internal/obs"
	"pushpull/internal/stm/boost"
	"pushpull/internal/stm/dep"
	"pushpull/internal/stm/htmsim"
	"pushpull/internal/stm/pess"
	"pushpull/internal/stm/tl2"
	"pushpull/internal/trace"
)

// SubstrateParams configures one real-substrate throughput run.
type SubstrateParams struct {
	Substrate string `json:"substrate"` // tl2 | pess | boost | htmsim | dep
	Threads   int    `json:"threads"`
	OpsEach   int    `json:"ops_each"`
	Keys      int    `json:"keys"` // word/key range; fewer = hotter
	ReadPct   int    `json:"read_pct"`
	Seed      int64  `json:"seed"`
	// Yield inserts this many scheduler yields between a transaction's
	// read and its write, widening the conflict window — necessary to
	// exercise contention under GOMAXPROCS=1, where short transactions
	// otherwise run to completion unpreempted.
	Yield int `json:"-"`
	// Obs, when non-nil, instruments the run: a certifying shadow-
	// machine recorder is attached and its rule stream (site-labelled
	// with the substrate name) feeds the suite. This puts the recorder
	// on the measured path — use it for observability runs, not raw
	// throughput baselines (nil leaves the bench path untouched).
	Obs *obs.Suite `json:"-"`
}

// SubstrateResult reports a substrate run. Commits/Aborts are the
// substrate's own counters; Throughput is transactions per second.
type SubstrateResult struct {
	Params   SubstrateParams `json:"-"` // flattened into the row by MarshalJSON
	Commits  uint64          `json:"commits"`
	Aborts   uint64          `json:"aborts"`
	Extra    string          `json:"extra,omitempty"` // substrate-specific (fallbacks, cascades, ...)
	Duration time.Duration   `json:"-"`               // encoded as duration_ms
}

// AbortRatio is the fraction of attempts that aborted.
func (r SubstrateResult) AbortRatio() float64 { return AbortRatio(r.Aborts, r.Commits) }

// Throughput is committed transactions per second.
func (r SubstrateResult) Throughput() float64 {
	if r.Duration == 0 {
		return 0
	}
	return float64(r.Commits) / r.Duration.Seconds()
}

// SubstrateNames lists the sweepable substrates.
func SubstrateNames() []string { return []string{"tl2", "pess", "boost", "htmsim", "dep"} }

// seams is what a run attaches to a substrate: the certifying
// recorder, the fault injector, the retry policy and the commit
// barrier. The zero value attaches nothing — the raw throughput path.
type seams struct {
	rec     *trace.Recorder
	inj     chaos.Injector
	retry   *chaos.RetryPolicy
	durable core.Durable
}

// wordTx is the transaction surface the four word substrates share.
type wordTx interface {
	Read(addr int) (int64, error)
	Write(addr int, val int64) error
}

// rmwWord is the common transaction body: a pure read, or a
// read-increment-write with yield scheduler yields in between.
func rmwWord(tx wordTx, addr int, readOnly bool, yield int) error {
	v, err := tx.Read(addr)
	if err != nil || readOnly {
		return err
	}
	yieldN(yield)
	return tx.Write(addr, v+1)
}

// rmwSubstrate builds the named substrate with the seams attached and
// returns the common read-modify-write transaction over it — one key,
// so contention is controlled purely by the key range — and its own
// commit/abort counters (extra is substrate-specific: fallbacks,
// cascades). Both the throughput sweep and the chaos/crash targets run
// through it.
func rmwSubstrate(name string, keys int, seed int64, s seams) (
	txn func(key int, readOnly bool, yield int) error,
	stats func() (commits, aborts uint64, extra string), err error) {
	switch name {
	case "tl2":
		m := tl2.New(keys)
		m.Recorder, m.Injector, m.Retry, m.Durable = s.rec, s.inj, s.retry, s.durable
		txn = func(key int, readOnly bool, yield int) error {
			return m.AtomicNamed("t", func(tx *tl2.Tx) error { return rmwWord(tx, key, readOnly, yield) })
		}
		stats = func() (uint64, uint64, string) { st := m.Stats(); return st.Commits, st.Aborts, "" }
	case "pess":
		m := pess.New(keys)
		m.Recorder, m.Injector, m.Retry, m.Durable = s.rec, s.inj, s.retry, s.durable
		txn = func(key int, readOnly bool, yield int) error {
			return m.AtomicNamed("t", func(tx *pess.Tx) error { return rmwWord(tx, key, readOnly, yield) })
		}
		stats = func() (uint64, uint64, string) { st := m.Stats(); return st.Commits, st.Aborts, "" }
	case "htmsim":
		h := htmsim.New(keys)
		h.Recorder, h.Injector, h.Retry, h.Durable = s.rec, s.inj, s.retry, s.durable
		txn = func(key int, readOnly bool, yield int) error {
			return h.Atomic("t", func(tx *htmsim.Tx) error { return rmwWord(tx, key, readOnly, yield) })
		}
		stats = func() (uint64, uint64, string) {
			st := h.Stats()
			return st.Commits, st.ConflictAborts + st.CapacityAborts, fmt.Sprintf("fallbacks=%d", st.Fallbacks)
		}
	case "dep":
		m := dep.New(keys)
		m.Recorder, m.Injector, m.Retry, m.Durable = s.rec, s.inj, s.retry, s.durable
		txn = func(key int, readOnly bool, yield int) error {
			return m.Atomic("t", func(tx *dep.Tx) error { return rmwWord(tx, key, readOnly, yield) })
		}
		stats = func() (uint64, uint64, string) {
			st := m.Stats()
			return st.Commits, st.Aborts, fmt.Sprintf("cascades=%d", st.Cascades)
		}
	case "boost":
		rt := boost.NewRuntime()
		rt.Recorder, rt.Injector, rt.Retry, rt.Durable = s.rec, s.inj, s.retry, s.durable
		ht := boost.NewMap(rt, "ht", seed)
		txn = func(key int, readOnly bool, yield int) error {
			return rt.Atomic("b", func(tx *boost.Txn) error {
				v, present, err := ht.Get(tx, int64(key))
				if err != nil || readOnly {
					return err
				}
				if !present {
					v = 0
				}
				yieldN(yield)
				_, _, err = ht.Put(tx, int64(key), v+1)
				return err
			})
		}
		stats = func() (uint64, uint64, string) { st := rt.Stats(); return st.Commits, st.Aborts, "" }
	default:
		return nil, nil, fmt.Errorf("bench: unknown substrate %q", name)
	}
	return txn, stats, nil
}

// RunSubstrate runs the common read-modify-write workload on the named
// substrate: each transaction touches one key — readPct% of the time a
// pure read, otherwise a read-increment-write.
func RunSubstrate(p SubstrateParams) (SubstrateResult, error) {
	// An instrumented run certifies on a shadow machine whose rule
	// stream (site-labelled with the substrate name) feeds the suite;
	// without a suite the bench path stays recorder-free.
	var rec *trace.Recorder
	if p.Obs != nil {
		rec = trace.NewRecorder(CertRegistryFor(p.Substrate))
		rec.SetSite(p.Substrate)
		rec.AttachSink(p.Obs)
	}
	txn, stats, err := rmwSubstrate(p.Substrate, p.Keys, p.Seed, seams{rec: rec})
	if err != nil {
		return SubstrateResult{}, err
	}
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < p.Threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(p.Seed + int64(g)))
			for i := 0; i < p.OpsEach; i++ {
				if err := txn(rng.Intn(p.Keys), rng.Intn(100) < p.ReadPct, p.Yield); err != nil {
					panic(fmt.Sprintf("bench substrate %s: %v", p.Substrate, err))
				}
			}
		}(g)
	}
	wg.Wait()
	res := SubstrateResult{Params: p, Duration: time.Since(start)}
	res.Commits, res.Aborts, res.Extra = stats()
	if rec != nil {
		if err := rec.FinalCheck(); err != nil {
			return res, err
		}
	}
	return res, nil
}

func yieldN(n int) {
	for i := 0; i < n; i++ {
		runtime.Gosched()
	}
}

// SweepSubstrates runs every substrate across contention levels (key
// ranges; p.Substrate and p.Keys are overridden per cell) and renders
// the E10 comparison table.
func SweepSubstrates(p SubstrateParams, keyRanges []int) (string, []SubstrateResult, error) {
	var rows []Row
	var results []SubstrateResult
	for _, keys := range keyRanges {
		for _, s := range SubstrateNames() {
			p.Substrate, p.Keys = s, keys
			res, err := RunSubstrate(p)
			if err != nil {
				return "", nil, err
			}
			results = append(results, res)
			rows = append(rows, Row{
				s, fmt.Sprintf("%d", keys),
				fmt.Sprintf("%d", res.Commits), fmt.Sprintf("%d", res.Aborts),
				fmt.Sprintf("%.3f", abortsPerCommit(res.Aborts, res.Commits)),
				fmt.Sprintf("%.0f", res.Throughput()),
				res.Extra,
			})
		}
	}
	table := Table(Row{"substrate", "keys", "commits", "aborts", "aborts/commit", "txn/s", "notes"}, rows)
	return table, results, nil
}

// HTMCapacitySweep measures fallback behaviour as transaction footprint
// crosses the speculative capacity — the E10 HTM shape: small
// footprints commit speculatively, large ones fall back to the lock.
func HTMCapacitySweep(capacity int, footprints []int, opsEach int, seed int64) (string, error) {
	var rows []Row
	for _, fp := range footprints {
		h := htmsim.New(4096)
		h.Capacity = capacity
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < opsEach; i++ {
			base := rng.Intn(2048)
			err := h.Atomic("cap", func(tx *htmsim.Tx) error {
				for k := 0; k < fp; k++ {
					v, err := tx.Read(base + k)
					if err != nil {
						return err
					}
					if err := tx.Write(base+k, v+1); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return "", err
			}
		}
		st := h.Stats()
		rows = append(rows, Row{
			fmt.Sprintf("%d", fp), fmt.Sprintf("%d", capacity),
			fmt.Sprintf("%d", st.Commits), fmt.Sprintf("%d", st.CapacityAborts),
			fmt.Sprintf("%d", st.Fallbacks),
			fmt.Sprintf("%.2f", float64(st.Fallbacks)/float64(opsEach)),
		})
	}
	return Table(Row{"footprint", "capacity", "commits", "capacity-aborts", "fallbacks", "fallback-rate"}, rows), nil
}
