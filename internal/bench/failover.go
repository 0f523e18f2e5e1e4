package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"pushpull/internal/chaos"
	"pushpull/internal/history"
	"pushpull/internal/repl"
	"pushpull/internal/server"
	"pushpull/internal/shard"
)

// The failover target: a replicated, lease-fenced primary (4-shard
// engine shipping to two replicas over faulty links that drop,
// duplicate, reorder, and PARTITION batches) dies mid-workload — a
// deterministic WAL crash plus armed coordinator death sites, so some
// seeds kill it between prepare and commit; seeds whose crash never
// fires lose their lease instead (the supervisor partitioned away) and
// must refuse every subsequent ack themselves. The sweep then promotes
// the more advanced replica and asserts the full self-healing
// contract: the promotion re-certifies the merged global order with
// zero transactions in doubt, the promoted chains prefix-extend the
// other replica's, no acknowledged write is lost, every ambiguous
// session request retried against the successor settles exactly once
// (a dedup hit never re-executes), at most one primary acks per lease
// epoch, and the promoted engine's histories replay clean through the
// offline certifier.

// failoverShards is the sweep's fixed partition count.
const failoverShards = 4

// failoverClients is the number of exactly-once session clients
// driving the sweep's load (each owns a disjoint key slice).
const failoverClients = 4

// Replication-link fault sites (plan-derivation labels only; the link
// injects by Hash01 draws, not through a chaos.Faults injector).
const (
	SiteReplDrop    chaos.Site = "repl/drop"
	SiteReplDup     chaos.Site = "repl/dup"
	SiteReplReorder chaos.Site = "repl/reorder"
)

// FailoverPlanFor builds one failover run's reproduction recipe:
// coordinator death armed in the prepare→commit window, a
// deterministic WAL crash whose append index is a pure function of the
// seed, and per-replica link fault rates drawn from the same seed.
func FailoverPlanFor(seed int64, p ChaosParams) chaos.Plan {
	p = p.WithDefaults()
	plan := chaos.NewPlan(seed).
		WithRate(chaos.SiteCoordPrepared, p.Rate/4).
		WithRate(chaos.SiteCoordCommit, p.Rate/4)
	est := estimatedAppends("tl2", p) / failoverShards
	if est == 0 {
		est = 1
	}
	frac := chaos.Hash01(seed, chaos.SiteWALAppend, 0)
	return plan.WithCrash(1+uint64(frac*float64(est)), chaos.CrashMode(uint64(seed)%3))
}

// linkRates derives one replica link's drop/dup/reorder probabilities
// from the seed (visit distinguishes the replicas).
func linkRates(seed int64, visit uint64) (drop, dup, reorder float64) {
	return 0.25 * chaos.Hash01(seed, SiteReplDrop, visit),
		0.25 * chaos.Hash01(seed, SiteReplDup, visit),
		0.25 * chaos.Hash01(seed, SiteReplReorder, visit)
}

// FailoverDetail is what a failover run adds to its Outcome.
type FailoverDetail struct {
	// CrashFired reports whether the plan's WAL crash killed the
	// primary mid-run (otherwise the run deposes it by lease expiry —
	// the failover machinery is exercised either way).
	CrashFired bool `json:"crash_fired"`
	// Acked is the number of distinct keys with a client-acknowledged
	// write — the zero-loss ledger.
	Acked int `json:"acked_keys"`
	// Partitions counts seeded partition windows installed on the
	// replication links; AckWithheld counts commits whose ack the
	// primary refused because a link lagged or its lease expired —
	// every one becomes an ambiguous outcome the session client
	// retries.
	Partitions  int    `json:"partitions"`
	AckWithheld uint64 `json:"ack_withheld"`
	// ZombieRefused counts post-expiry writes the deposed primary
	// refused by itself; Retried and DedupHits describe the ambiguous
	// requests settled against the successor (a dedup hit answers from
	// the replicated table without re-executing).
	ZombieRefused uint64 `json:"zombie_refused"`
	Retried       int    `json:"retried"`
	DedupHits     int    `json:"dedup_hits"`
	// LeaseEpoch is the successor's lease epoch (always 2: one
	// predecessor, one promotion).
	LeaseEpoch uint64 `json:"lease_epoch"`
	// PromotedTxns is the promoted certificate's recovered transaction
	// count; InDoubt must be zero.
	PromotedTxns int `json:"promoted_txns"`
	InDoubt      int `json:"in_doubt"`
	// HistoryTxns counts transactions replayed through the offline
	// history certifier on the promoted engine.
	HistoryTxns int `json:"history_txns"`
}

// sessionClient is one exactly-once client in the sweep: it owns keys
// k with k % failoverClients == id, advances seq only on settled
// outcomes, and holds an ambiguous request for retry on the successor.
type sessionClient struct {
	id      uint64
	seq     uint64
	pending bool
	ops     []shard.Op // the held (unsettled) request
}

// runFailover is the "failover" target (see RunChaosOne): load a
// shipping primary under chaos until it dies (or is deposed), promote
// the most advanced replica, and assert the full self-healing contract.
func runFailover(seed int64, p ChaosParams, out *Outcome) error {
	out.FailoverDetail = &FailoverDetail{}
	keys := p.Keys * failoverShards
	cfg := repl.Config{Substrate: "tl2", Shards: failoverShards, Keys: keys}
	repA := repl.NewReplica(cfg)
	repB := repl.NewReplica(cfg)
	g := repl.NewGroup(1)
	dropA, dupA, reA := linkRates(seed, 1)
	dropB, dupB, reB := linkRates(seed, 2)
	links := []*repl.Link{
		g.Add(repA, seed, dropA, dupA, reA),
		g.Add(repB, seed+1000, dropB, dupB, reB),
	}

	// Seeded partition windows — full and asymmetric — on each link,
	// on the batch-index axis so replay is deterministic.
	txns := p.Threads * p.OpsEach
	span := uint64(txns)
	for li, ln := range links {
		rate := p.Rate * 4
		if rate > 0.6 {
			rate = 0.6
		}
		for _, w := range chaos.PartitionsFor(seed, li, rate, span, span/4+1, 2) {
			ln.Partition(repl.PartitionWindow{From: w.From, To: w.To, Asym: w.Asym})
			out.Partitions++
		}
	}

	// The serving lease on a manual clock: the workload loop advances
	// time and renews while the supervisor is "reachable"; when the
	// crash fires (or the zombie phase starts) renewals stop and the
	// primary must silence itself.
	var nowNs atomic.Int64
	base := time.Unix(1_000_000, 0)
	clock := func() time.Time { return base.Add(time.Duration(nowNs.Load())) }
	lease := server.NewLease(50*time.Millisecond, clock)

	plan := FailoverPlanFor(seed, p)
	out.Plan = plan.String()
	ackCheck := func() error {
		if err := lease.Check(); err != nil {
			return err
		}
		if n := g.Lagging(); n > 0 {
			out.AckWithheld++
			return fmt.Errorf("replication lagging %d batch(es)", n)
		}
		return nil
	}
	eng, err := shard.New(shard.Options{
		Shards: failoverShards, Substrate: "tl2", Keys: keys, Seed: seed,
		Durable: true, Ship: g.Ship, Plan: &plan,
		Retry: chaos.Default(seed), Suite: p.Obs,
		AckCheck: ackCheck,
	})
	if err != nil {
		return err
	}
	if err := eng.BrandLease(1); err != nil {
		return err
	}
	if err := lease.Grant(1); err != nil {
		return err
	}
	clean := plan.CrashMode == chaos.CrashClean

	// ambiguous reports whether a DoSession outcome left the commit
	// state unknown to the client (withheld ack, fenced coordinator,
	// dead process) — the retried-on-successor cases — as opposed to a
	// settled abort.
	ambiguous := func(err error) bool {
		return errors.Is(err, shard.ErrAckUnknown) || errors.Is(err, shard.ErrCoordCrashed)
	}

	rng := rand.New(rand.NewSource(seed))
	clients := make([]*sessionClient, failoverClients)
	for c := range clients {
		clients[c] = &sessionClient{id: uint64(100 + c)}
	}
	// acked[key] is the value of the last client-acknowledged write —
	// values grow with issue order, so the final image must read >= the
	// acked value at every key (a stale double-apply would clobber a
	// newer write below its acked value and be caught).
	acked := make(map[uint64]int64)
	ownKey := func(c int) uint64 {
		return uint64(rng.Intn(keys)/failoverClients*failoverClients + c)
	}
	for i := 1; i <= txns; i++ {
		nowNs.Add(int64(time.Millisecond))
		lease.Renew()
		cl := clients[i%failoverClients]
		if cl.pending {
			continue // a real session client blocks until its retry settles
		}
		v := int64(i)
		ops := []shard.Op{{Kind: shard.OpPut, Key: ownKey(i % failoverClients), Val: v}}
		if rng.Intn(3) == 0 {
			ops = append(ops, shard.Op{Kind: shard.OpPut, Key: ownKey(i % failoverClients), Val: v})
		}
		cl.seq++
		_, _, _, err := eng.DoSession(cl.id, cl.seq, ops)
		alive := !eng.Crashed()
		switch {
		case err == nil && alive:
			for _, op := range ops {
				acked[op.Key] = op.Val
			}
		case err == nil || ambiguous(err) || !alive:
			// Committed-but-unacked, withheld, fenced, or the process
			// died under the request: the client holds (seq, ops) and
			// will re-issue them verbatim against the successor.
			cl.pending = true
			cl.ops = ops
		default:
			out.GaveUp++ // a settled abort; the seq is consumed
		}
	}
	out.CrashFired = eng.Crashed()

	// Seeds whose crash never fired depose the primary by lease expiry
	// instead: renewals stop, time passes, and the zombie must refuse
	// every ack itself — the "at most one acking primary per lease
	// epoch" half of the fencing invariant.
	if !out.CrashFired {
		nowNs.Add(int64(time.Second))
		if lease.Renew() {
			return errors.New("expired lease renewed — resurrected permit")
		}
		for z := 0; z < failoverClients; z++ {
			cl := clients[z]
			if cl.pending {
				continue
			}
			cl.seq++
			ops := []shard.Op{{Kind: shard.OpPut, Key: ownKey(z), Val: int64(txns + 1 + z)}}
			_, _, _, err := eng.DoSession(cl.id, cl.seq, ops)
			if err == nil {
				return fmt.Errorf("deposed primary acked client %d on an expired lease", cl.id)
			}
			if !ambiguous(err) {
				return fmt.Errorf("zombie refusal had wrong shape: %w", err)
			}
			out.ZombieRefused++
			cl.pending = true
			cl.ops = ops
		}
	}
	eng.Kill()
	st := eng.Stats()
	out.Commits, out.Aborts = st.Commits, st.Aborts
	out.Acked = len(acked)
	out.Faults = eng.FaultStats()

	// Partitions heal: pending backlogs flush (asymmetric windows land
	// as duplicates the replica's overlap check absorbs).
	g.Heal()

	// Both replicas must be undamaged and independently certifiable.
	for i, r := range []*repl.Replica{repA, repB} {
		if err := r.Poisoned(); err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		if _, err := r.Certify(); err != nil {
			return fmt.Errorf("replica %d certification: %w", i, err)
		}
	}

	// Promote the more advanced replica; its chains must prefix-extend
	// the other's, per stream.
	promoted, other := repA, repB
	if appliedTotal(repB) > appliedTotal(repA) {
		promoted, other = repB, repA
	}
	promRep, err := promoted.Certify()
	if err != nil {
		return fmt.Errorf("promotion certificate: %w", err)
	}
	out.PromotedTxns = promRep.RecoveredTxns()
	out.InDoubt = promRep.InDoubt
	if promRep.InDoubt != 0 {
		return fmt.Errorf("%d transaction(s) in doubt after promotion", promRep.InDoubt)
	}
	if err := repl.CheckPrefixExtension(promoted.Chains(), other.Chains()); err != nil {
		return err
	}

	// A clean crash preserves exactly the durable prefix, so the
	// promoted recovery must match the primary image's recovery
	// transaction for transaction. (Torn and bitflip crashes may strip
	// the primary's never-durable tail — which was never shipped and
	// never acked — so only the zero-acked-loss check applies there.)
	if out.CrashFired && clean {
		primaryRep, err := shard.RecoverAndCertifyImage(eng.Image(), "tl2")
		if err != nil {
			return fmt.Errorf("primary image: %w", err)
		}
		if got, want := promRep.RecoveredTxns(), primaryRep.RecoveredTxns(); got != want {
			return fmt.Errorf("promoted recovered %d txns, primary image has %d", got, want)
		}
	}

	// The successor serves at the next engine epoch under lease epoch
	// 2, granted only after the predecessor's lease is provably dead.
	lease2 := server.NewLease(50*time.Millisecond, clock)
	eng2, err := shard.New(shard.Options{
		Shards: failoverShards, Substrate: "tl2", Keys: keys, Seed: seed + 1,
		Durable: true, RecoverFrom: promoted.Image(), Epoch: promRep.Epoch + 1,
		AckCheck: lease2.Check,
	})
	if err != nil {
		return fmt.Errorf("promotion boot: %w", err)
	}
	if n := eng2.Recovered().InDoubt; n != 0 {
		return fmt.Errorf("in-doubt after promoted restart: %d", n)
	}
	if err := eng2.BrandLease(2); err != nil {
		return err
	}
	if err := lease2.Grant(2); err != nil {
		return err
	}
	out.LeaseEpoch = 2

	// Every client with an ambiguous outcome blindly re-issues the held
	// (session, seq, ops) against the successor; each must settle
	// exactly once — a dedup hit proves the original committed and MUST
	// NOT re-execute (zero commits delta), a miss executes it now.
	for _, cl := range clients {
		if !cl.pending {
			continue
		}
		out.Retried++
		commits0 := eng2.Stats().Commits
		_, _, dedup, err := eng2.DoSession(cl.id, cl.seq, cl.ops)
		if err != nil {
			return fmt.Errorf("client %d retry on successor: %w", cl.id, err)
		}
		if dedup {
			out.DedupHits++
			if got := eng2.Stats().Commits; got != commits0 {
				return fmt.Errorf("client %d dedup hit re-executed: commits %d -> %d", cl.id, commits0, got)
			}
		}
		cl.pending = false
		for _, op := range cl.ops {
			// Settled now: the write is acked (at its original position
			// if dedup'd, at the tail otherwise — either way the key's
			// final value is >= its value under monotone values).
			if cur, ok := acked[op.Key]; !ok || op.Val > cur {
				acked[op.Key] = op.Val
			}
		}
	}

	// Zero acked loss: every acknowledged write is present.
	for k, v := range acked {
		if got, _ := eng2.ReadKey(k); got < v {
			return fmt.Errorf("acknowledged write lost: key %d = %d, acked %d", k, got, v)
		}
	}
	if _, _, err := eng2.Do([]shard.Op{{Kind: shard.OpPut, Key: 0, Val: int64(txns) + 100}}); err != nil {
		return fmt.Errorf("promoted engine refuses writes: %w", err)
	}
	if err := eng2.FinalCheck(); err != nil {
		return fmt.Errorf("promoted final check: %w", err)
	}

	// Offline cross-check: capture each promoted shard's certified
	// history and replay it through a fresh shadow machine.
	for i, rec := range eng2.Recorders() {
		if rec == nil {
			continue
		}
		f := history.Capture(rec, []history.ObjectDecl{{Name: "mem", Type: "register"}})
		rep, err := history.Replay(f)
		if err != nil {
			return fmt.Errorf("shard %d history replay: %w", i, err)
		}
		if err := rep.Err(); err != nil {
			return fmt.Errorf("shard %d history certificate: %w", i, err)
		}
		out.HistoryTxns += rep.Certified
	}
	return eng2.Close()
}

func appliedTotal(r *repl.Replica) uint64 {
	var n uint64
	for s := 0; s < r.Config().Streams(); s++ {
		n += r.AppliedRecords(s)
	}
	return n
}
