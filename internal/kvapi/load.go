package kvapi

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pushpull/internal/ops"
	"pushpull/internal/shard"
)

// LoadParams configures one closed-loop load campaign: Clients
// connections, each issuing transactions back to back until Duration
// elapses (or MaxTxns transactions, whichever comes first).
type LoadParams struct {
	Addr    string
	Clients int
	// Duration bounds the campaign wall-clock (default 5s). Clients
	// stop issuing new transactions once it elapses; in-flight ones
	// drain.
	Duration time.Duration
	// MaxTxns, when >0, additionally caps transactions per client —
	// the deterministic-size form tests use.
	MaxTxns int
	// Keys is the key range (default 64). Fewer keys = hotter.
	Keys int
	// ReadPct is the percentage of get operations (default 50).
	ReadPct int
	// OpsPerTxn is the operation count per transaction (default 3).
	OpsPerTxn int
	// Skew is the Zipf exponent for key choice; <=1 means uniform.
	// (rand.NewZipf requires s>1, so the boundary maps to uniform.)
	Skew float64
	// Interactive runs begin/op/commit sessions instead of one-shot
	// MsgTxn transactions.
	Interactive bool
	// ReadOnlyPct is the percentage of transactions issued as declared
	// read-only snapshot transactions (every op a Get, the ReadOnly
	// wire flag set). These take the MVCC snapshot path: no admission
	// gate, no conflict retries, no aborts. Zero issues none.
	ReadOnlyPct int
	// Seed makes key/op choices reproducible (default 1).
	Seed int64
	// Shards, when > 1, shapes key choice for a sharded server:
	// CrossPct percent of transactions pick keys spanning at least two
	// shards (the coordinator path), the rest confine every key to one
	// home shard (the fast path). Zero leaves key choice unshaped.
	Shards   int
	CrossPct int
	// OpMix, when non-empty, draws every read-write transaction's ops
	// from this weighted typed-op mix instead of the ReadPct get/put
	// split (ParseOpMix parses the "incr:70,cget:20,cas:10" flag form).
	// Typed keys are partitioned by family — counters on [0, Keys/2),
	// sets on [Keys/2, 3·Keys/4), queues on the rest — so a draw never
	// hits a cell of another kind. Declared read-only transactions
	// under a mix issue cget-only snapshots.
	OpMix []OpMixEntry
}

// OpMixEntry weights one op kind in a typed mix.
type OpMixEntry struct {
	Kind   OpKind
	Weight int
}

// ParseOpMix parses "incr:70,cget:20,cas:10" into mix entries. Weights
// are relative; names are OpKind.String names.
func ParseOpMix(s string) ([]OpMixEntry, error) {
	if s == "" {
		return nil, nil
	}
	var mix []OpMixEntry
	for _, part := range strings.Split(s, ",") {
		name, wstr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("kvapi: op-mix entry %q: want name:weight", part)
		}
		d, known := ops.ByName(strings.TrimSpace(name))
		if !known {
			return nil, fmt.Errorf("kvapi: op-mix entry %q: unknown op %q", part, name)
		}
		w, err := strconv.Atoi(strings.TrimSpace(wstr))
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("kvapi: op-mix entry %q: bad weight", part)
		}
		mix = append(mix, OpMixEntry{Kind: d.Code, Weight: w})
	}
	return mix, nil
}

func (p LoadParams) withDefaults() LoadParams {
	if p.Clients <= 0 {
		p.Clients = 8
	}
	if p.Duration <= 0 {
		p.Duration = 5 * time.Second
	}
	if p.Keys <= 0 {
		p.Keys = 64
	}
	if p.ReadPct < 0 || p.ReadPct > 100 {
		p.ReadPct = 50
	}
	if p.OpsPerTxn <= 0 {
		p.OpsPerTxn = 3
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// LoadResult aggregates a campaign: outcome counts, client-perceived
// latency quantiles (a transaction's latency spans all its round
// trips, busy-waits included), and committed-transaction throughput.
type LoadResult struct {
	Params   LoadParams
	Elapsed  time.Duration
	Commits  uint64
	Aborts   uint64 // StatusAborted outcomes (retry budget, replay divergence)
	Busy     uint64 // admission-control rejections (each later retried)
	Errors   uint64 // StatusError outcomes
	Retries  uint64 // server-side substrate retries, summed
	P50, P95 time.Duration
	P99      time.Duration

	// Read-only snapshot transactions, tallied separately: the claim
	// under test is that ROAborts stays zero under any contention.
	ROCommits uint64
	ROAborts  uint64 // any non-OK outcome on the read-only path

	// CommuteHits sums the servers' per-transaction commute-hit counts:
	// typed operations that shared their cell's abstract lock with
	// other live transactions instead of conflicting.
	CommuteHits uint64
}

// Throughput is committed transactions per second.
func (r LoadResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Commits) / r.Elapsed.Seconds()
}

func (r LoadResult) String() string {
	s := fmt.Sprintf(
		"clients=%d elapsed=%v commits=%d aborts=%d busy=%d errors=%d retries=%d  %.0f txn/s  p50=%v p95=%v p99=%v",
		r.Params.Clients, r.Elapsed.Round(time.Millisecond),
		r.Commits, r.Aborts, r.Busy, r.Errors, r.Retries,
		r.Throughput(), r.P50, r.P95, r.P99)
	if r.Params.ReadOnlyPct > 0 {
		s += fmt.Sprintf("  ro_commits=%d ro_aborts=%d", r.ROCommits, r.ROAborts)
	}
	if len(r.Params.OpMix) > 0 {
		s += fmt.Sprintf("  commute_hits=%d", r.CommuteHits)
	}
	return s
}

// clientTally is one worker's private aggregate, merged after the run.
type clientTally struct {
	commits, aborts, busy, errs, retries uint64
	roCommits, roAborts                  uint64
	commuteHits                          uint64
	lats                                 []time.Duration
	err                                  error // transport failure, fatal for the campaign
}

// RunLoad drives the campaign and blocks until every client drains.
// A transport-level failure on any connection fails the whole run —
// against a healthy server the only non-OK outcomes are application
// statuses, which are counted, not fatal.
func RunLoad(p LoadParams) (LoadResult, error) {
	p = p.withDefaults()
	tallies := make([]clientTally, p.Clients)
	start := time.Now()
	deadline := start.Add(p.Duration)

	var wg sync.WaitGroup
	for i := 0; i < p.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tallies[i] = runClient(p, i, deadline)
		}(i)
	}
	wg.Wait()

	res := LoadResult{Params: p, Elapsed: time.Since(start)}
	var all []time.Duration
	for i := range tallies {
		t := &tallies[i]
		if t.err != nil {
			return res, fmt.Errorf("kvapi: load client %d: %w", i, t.err)
		}
		res.Commits += t.commits
		res.Aborts += t.aborts
		res.Busy += t.busy
		res.Errors += t.errs
		res.Retries += t.retries
		res.ROCommits += t.roCommits
		res.ROAborts += t.roAborts
		res.CommuteHits += t.commuteHits
		all = append(all, t.lats...)
	}
	res.P50, res.P95, res.P99 = quantiles(all)
	return res, nil
}

func runClient(p LoadParams, id int, deadline time.Time) clientTally {
	var t clientTally
	c, err := Dial(p.Addr)
	if err != nil {
		t.err = err
		return t
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(p.Seed + int64(id)*7919))
	var zipf *rand.Zipf
	if p.Skew > 1 && p.Keys > 1 {
		zipf = rand.NewZipf(rng, p.Skew, 1, uint64(p.Keys-1))
	}
	pick := func() uint64 {
		if zipf != nil {
			return zipf.Uint64()
		}
		return uint64(rng.Intn(p.Keys))
	}

	mixTotal := 0
	for _, e := range p.OpMix {
		mixTotal += e.Weight
	}

	for n := 0; time.Now().Before(deadline); n++ {
		if p.MaxTxns > 0 && n >= p.MaxTxns {
			break
		}
		keys := pickKeys(p, rng, pick)
		readOnly := p.ReadOnlyPct > 0 && rng.Intn(100) < p.ReadOnlyPct
		ops := make([]Op, p.OpsPerTxn)
		for j := range ops {
			switch {
			case mixTotal > 0 && readOnly:
				// Typed read-only snapshots read counters.
				ops[j] = Op{Kind: OpCGet, Key: typedKeyFor(OpCGet, keys[j], p.Keys)}
			case mixTotal > 0:
				ops[j] = drawTypedOp(p, rng, keys[j], mixTotal)
			case readOnly || rng.Intn(100) < p.ReadPct:
				ops[j] = Op{Kind: OpGet, Key: keys[j]}
			default:
				ops[j] = Op{Kind: OpPut, Key: keys[j], Val: rng.Int63n(1 << 20)}
			}
		}
		t0 := time.Now()
		switch {
		case readOnly && p.Interactive:
			err = runInteractiveRO(c, ops, &t)
		case readOnly:
			err = runReadOnly(c, ops, &t)
		case p.Interactive:
			err = runInteractive(c, ops, &t)
		default:
			err = runOneShot(c, ops, &t)
		}
		if err != nil {
			t.err = err
			return t
		}
		t.lats = append(t.lats, time.Since(t0))
	}
	return t
}

// typedKeyFor confines a raw key draw to its family's partition of the
// keyspace: counters on [0, Keys/2), sets on [Keys/2, 3·Keys/4),
// queues on [3·Keys/4, Keys). The hot head of a zipf draw (key 0)
// lands in the counter range, which is where the commuting ops live.
func typedKeyFor(kind OpKind, k uint64, keys int) uint64 {
	ctrN := keys / 2
	if ctrN < 1 {
		ctrN = 1
	}
	setN := keys / 4
	if setN < 1 {
		setN = 1
	}
	qN := keys - ctrN - setN
	if qN < 1 {
		qN = 1
	}
	switch kind {
	case OpSAdd, OpSRem, OpSCont:
		return uint64(ctrN) + k%uint64(setN)
	case OpQPush, OpQPop:
		return uint64(ctrN+setN) + k%uint64(qN)
	case OpGet, OpPut:
		return k
	default:
		return k % uint64(ctrN)
	}
}

// drawTypedOp draws one op from the weighted mix and shapes its
// operands: incr adds 1 (the hot-counter op), wd withdraws 1, cas
// swings between small values, set members and queue values are small
// draws.
func drawTypedOp(p LoadParams, rng *rand.Rand, key uint64, mixTotal int) Op {
	w := rng.Intn(mixTotal)
	kind := p.OpMix[len(p.OpMix)-1].Kind
	for _, e := range p.OpMix {
		if w < e.Weight {
			kind = e.Kind
			break
		}
		w -= e.Weight
	}
	op := Op{Kind: kind, Key: typedKeyFor(kind, key, p.Keys)}
	switch kind {
	case OpPut:
		op.Val = rng.Int63n(1 << 20)
	case OpAdd:
		op.Val = 1
	case OpWd:
		op.Val = 1
	case OpCAS:
		op.Val = rng.Int63n(4)
		op.Arg = rng.Int63n(4)
	case OpSAdd, OpSRem, OpSCont:
		op.Val = rng.Int63n(16)
	case OpQPush:
		op.Val = rng.Int63n(1 << 10)
	}
	return op
}

// pickKeys draws one transaction's key footprint. Unsharded (or
// single-shard) runs just sample OpsPerTxn keys. Against a sharded
// server, CrossPct percent of transactions must span at least two
// shards and the rest must stay on one — both enforced by rejection
// sampling against the same key→shard mapping the server routes by.
func pickKeys(p LoadParams, rng *rand.Rand, pick func() uint64) []uint64 {
	keys := make([]uint64, p.OpsPerTxn)
	for j := range keys {
		keys[j] = pick()
	}
	if p.Shards <= 1 || p.OpsPerTxn < 2 {
		return keys
	}
	r := shard.NewRouter(p.Shards)
	if rng.Intn(100) < p.CrossPct {
		// Cross-shard: re-draw the last key until it lands off the first
		// key's home shard.
		home := r.Shard(keys[0])
		for i := 0; r.Shard(keys[len(keys)-1]) == home && i < 64; i++ {
			keys[len(keys)-1] = pick()
		}
	} else {
		// Single-shard: confine every key to the first key's home shard.
		home := r.Shard(keys[0])
		for j := 1; j < len(keys); j++ {
			for i := 0; r.Shard(keys[j]) != home && i < 64; i++ {
				keys[j] = pick()
			}
			if r.Shard(keys[j]) != home {
				keys[j] = keys[0]
			}
		}
	}
	return keys
}

// runOneShot issues one MsgTxn, retrying admission rejections after
// the server's hint — the closed loop yields instead of hammering.
func runOneShot(c *Client, ops []Op, t *clientTally) error {
	for {
		resp, err := c.Do(ops)
		if err != nil {
			return err
		}
		t.retries += uint64(resp.Retries)
		switch resp.Status {
		case StatusOK:
			t.commits++
			t.commuteHits += resp.CommuteHits
			return nil
		case StatusAborted:
			t.aborts++
			return nil
		case StatusBusy:
			t.busy++
			time.Sleep(time.Duration(resp.RetryAfterMs) * time.Millisecond)
		default:
			t.errs++
			return nil
		}
	}
}

// runReadOnly issues one declared read-only snapshot transaction. The
// path is never admission-gated and never conflict-aborted, so any
// non-OK outcome counts against the never-abort claim.
func runReadOnly(c *Client, ops []Op, t *clientTally) error {
	resp, err := c.DoReadOnly(ops)
	if err != nil {
		return err
	}
	if resp.Status == StatusOK {
		t.roCommits++
	} else {
		t.roAborts++
	}
	return nil
}

// runInteractiveRO plays the ops through a read-only begin/get/commit
// session pinned to one snapshot.
func runInteractiveRO(c *Client, ops []Op, t *clientTally) error {
	resp, err := c.BeginReadOnly()
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		t.roAborts++
		return nil
	}
	for _, op := range ops {
		if resp, err = c.Get(op.Key); err != nil {
			return err
		}
		if resp.Status != StatusOK {
			t.roAborts++
			return nil // RO sessions close server-side on any failure
		}
	}
	if resp, err = c.Commit(); err != nil {
		return err
	}
	if resp.Status == StatusOK {
		t.roCommits++
	} else {
		t.roAborts++
	}
	return nil
}

// runInteractive plays the same ops through a begin/op/commit session.
// A mid-session abort (conflict replay diverged, retries exhausted)
// counts as one aborted transaction and the loop moves on.
func runInteractive(c *Client, ops []Op, t *clientTally) error {
	for {
		resp, err := c.Begin()
		if err != nil {
			return err
		}
		if resp.Status == StatusBusy {
			t.busy++
			time.Sleep(time.Duration(resp.RetryAfterMs) * time.Millisecond)
			continue
		}
		if resp.Status != StatusOK {
			t.errs++
			return nil
		}
		break
	}
	for _, op := range ops {
		var resp Response
		var err error
		if op.Kind == OpGet {
			resp, err = c.Get(op.Key)
		} else {
			resp, err = c.Put(op.Key, op.Val)
		}
		if err != nil {
			return err
		}
		t.retries += uint64(resp.Retries)
		if resp.Status == StatusAborted {
			t.aborts++
			return nil // session already closed server-side
		}
		if resp.Status != StatusOK {
			t.errs++
			_, err = c.Abort()
			return err
		}
	}
	resp, err := c.Commit()
	if err != nil {
		return err
	}
	t.retries += uint64(resp.Retries)
	switch resp.Status {
	case StatusOK:
		t.commits++
	case StatusAborted:
		t.aborts++
	default:
		t.errs++
	}
	return nil
}

// quantiles returns p50/p95/p99 of the (unsorted) samples.
func quantiles(lats []time.Duration) (p50, p95, p99 time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(lats)-1))
		return lats[i]
	}
	return at(0.50), at(0.95), at(0.99)
}
