package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"pushpull/internal/chaos"
	"pushpull/internal/shard"
)

// The sharded chaos+crash target: a 4-shard engine under substrate
// faults, per-shard WAL death, and coordinator death in the window
// between prepare and commit. Each run asserts the full sharded
// certificate twice — live (per-shard shadow machines, runtime
// cross-order invariant) and after a simulated restart (per-shard
// replay, coordinator resolution with zero transactions left in
// doubt, merged cross-shard commit order).

// shardChaosShards is the sweep's fixed partition count.
const shardChaosShards = 4

// ShardChaosPlanFor builds the reproduction recipe for one sharded
// run: substrate conflict faults at half rate, a coordinator-death
// probability split across the prepare→commit window, and a
// deterministic WAL crash (on a seed-chosen shard, via Plan.ForShard)
// whose append index and surviving-image mode are pure functions of
// the seed.
func ShardChaosPlanFor(seed int64, rate float64, p ChaosParams) chaos.Plan {
	p = p.WithDefaults()
	plan := chaos.NewPlan(seed).
		WithRate(chaos.SiteTL2Read, rate/8).
		WithRate(chaos.SiteTL2Commit, rate/2).
		WithRate(chaos.SiteCoordPrepared, rate/8).
		WithRate(chaos.SiteCoordCommit, rate/8)
	// Per-shard traffic is roughly 1/shards of the total appends.
	est := estimatedAppends("tl2", p) / shardChaosShards
	if est == 0 {
		est = 1
	}
	frac := chaos.Hash01(seed, chaos.SiteWALAppend, 0)
	n := 1 + uint64(frac*float64(est))
	return plan.WithCrash(n, chaos.CrashMode(uint64(seed)%3))
}

// runChaosShard is the "shard" (mutex coordinator) and "shardseq"
// (deterministic sequencer) chaos target (see RunChaosOne): the only
// difference between the two sweeps is which cross-shard commit path
// the engine routes through — the fault plan, the murder window, and
// both certificates are identical.
func runChaosShard(seed int64, p ChaosParams, out *Outcome, seqMode bool) error {
	plan := ShardChaosPlanFor(seed, p.Rate, p)
	out.Plan = plan.String()
	eng, err := shard.New(shard.Options{
		Shards: shardChaosShards, Substrate: "tl2",
		Keys: p.Keys * shardChaosShards, Seed: seed,
		Plan: &plan, Durable: true,
		Retry: chaos.Default(seed),
		Suite: p.Obs,
		Seq:   seqMode,
	})
	if err != nil {
		return err
	}

	var gaveUp, coordDeaths atomic.Uint64
	var wg sync.WaitGroup
	errCh := make(chan error, p.Threads)
	keys := p.Keys * shardChaosShards
	for g := 0; g < p.Threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)*101))
			for i := 0; i < p.OpsEach; i++ {
				k1 := uint64(rng.Intn(keys))
				k2 := uint64(rng.Intn(keys))
				val := int64(g*p.OpsEach + i)
				var ops []shard.Op
				if i%5 < 2 { // ~40% cross-shard candidates
					ops = []shard.Op{
						{Kind: shard.OpPut, Key: k1, Val: val},
						{Kind: shard.OpPut, Key: k2, Val: -val},
					}
				} else {
					ops = []shard.Op{
						{Kind: shard.OpGet, Key: k1},
						{Kind: shard.OpPut, Key: k1, Val: val},
					}
				}
				_, _, err := eng.Do(ops)
				switch {
				case err == nil:
				case errors.Is(err, chaos.ErrRetriesExhausted):
					gaveUp.Add(1)
				case errors.Is(err, shard.ErrCoordCrashed):
					// Controlled outcome: the coordinator died before this
					// transaction's decision; it aborted consistently.
					coordDeaths.Add(1)
				default:
					errCh <- fmt.Errorf("worker %d txn %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	if werr := <-errCh; werr != nil {
		return werr
	}

	st := eng.Stats()
	out.Commits, out.Aborts = st.Commits, st.Aborts
	out.GaveUp = gaveUp.Load() + coordDeaths.Load()
	out.Faults = eng.FaultStats()

	// Live certificate: leaks, per-shard shadow machines and commit
	// orders, runtime cross-shard order.
	if err := eng.LeakCheck(); err != nil {
		return err
	}
	if err := eng.FinalCheck(); err != nil {
		return err
	}

	// Restart certificate: recover the durable image into a fresh
	// engine — per-shard replay, coordinator resolution, merged order —
	// and demand zero transactions left in doubt.
	img := eng.Image()
	if err := eng.Close(); err != nil {
		return err
	}
	eng2, err := shard.New(shard.Options{
		Shards: shardChaosShards, Substrate: "tl2",
		Keys: p.Keys * shardChaosShards, Seed: seed + 1,
		Durable: true, RecoverFrom: img,
		Seq: seqMode,
	})
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	rep := eng2.Recovered()
	if rep.InDoubt != 0 {
		return fmt.Errorf("restart: %d cross-shard transaction(s) left in doubt", rep.InDoubt)
	}
	// The restarted engine must serve: no shard may be wedged by the
	// old coordinator's death.
	for k := uint64(0); k < shardChaosShards; k++ {
		if _, _, err := eng2.Do([]shard.Op{{Kind: shard.OpPut, Key: k, Val: 1}}); err != nil {
			return fmt.Errorf("restart: shard serving key %d wedged: %w", k, err)
		}
	}
	if err := eng2.FinalCheck(); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	return eng2.Close()
}
