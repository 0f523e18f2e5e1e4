package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"pushpull/internal/backend"
	"pushpull/internal/chaos"
	"pushpull/internal/kvapi"
	"pushpull/internal/ops"
	"pushpull/internal/recovery"
	"pushpull/internal/repl"
	"pushpull/internal/server"
	"pushpull/internal/shard"
	"pushpull/internal/wal"
)

// The traced pass — the ladder. After the measured window, and only
// then, a single goroutine replays the probe stream through each layer
// against fresh instances and wraps every call in a span recorded here,
// in the benchmark's own files: the program holds no span of ours. A
// rung's metric is the median span duration; a layer's self time is its
// rung minus the rung beneath it.

// span is one timed call into a layer. Txn is the transaction's index
// in the probe stream, shared across rungs, so one transaction can be
// followed up the ladder; Parent is the index of the rung's pass span.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Txn     int    `json:"txn"`
}

// tracer keeps spans in memory; they are written once, at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

func (tr *tracer) write(path string) error {
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// probeTxn is one transaction of the probe stream with its index.
type probeTxn struct {
	txn
	idx int
}

// rungResult is one rung of the ladder.
type rungResult struct {
	med    value   // median per-call duration in microseconds, over N calls
	allocs float64 // heap allocations per call over the whole rung
}

// rung runs fn once per transaction under one pass span. With spans off
// it times the calls the same way but records nothing — the pair is the
// tracing overhead.
func (tr *tracer) rung(name string, txns []probeTxn, spans bool, fn func(probeTxn) error) (rungResult, error) {
	var res rungResult
	us := make([]float64, 0, len(txns))
	if len(txns) == 0 {
		return res, fmt.Errorf("rung %s: no transaction of its class in the probe stream", name)
	}
	pass := -1
	if spans {
		pass = len(tr.spans)
		tr.spans = append(tr.spans, span{Name: name, StartNs: tr.now(), Parent: -1, Txn: -1})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, t := range txns {
		s := tr.now()
		err := fn(t)
		e := tr.now()
		if err != nil {
			return res, fmt.Errorf("rung %s txn %d: %w", name, t.idx, err)
		}
		if spans {
			tr.spans = append(tr.spans, span{Name: name, StartNs: s, EndNs: e, Parent: pass, Txn: t.idx})
		}
		us = append(us, float64(e-s)/1e3)
	}
	runtime.ReadMemStats(&after)
	if spans {
		tr.spans[pass].EndNs = tr.now()
	}
	res.med = value{V: median(us), N: len(us)}
	res.allocs = float64(after.Mallocs-before.Mallocs) / float64(len(txns))
	return res, nil
}

// once times a single call as its own pass span, in milliseconds.
func (tr *tracer) once(name string, fn func() error) (float64, error) {
	s := tr.now()
	err := fn()
	e := tr.now()
	tr.spans = append(tr.spans, span{Name: name, StartNs: s, EndNs: e, Parent: -1, Txn: -1})
	return float64(e-s) / 1e6, err
}

// probeStream draws the probe transactions: the first n of each class a
// rung wants. A class the mix makes rare (1% of ro-snapshot's stream
// crosses shards) is drawn further down the same stream.
type probeSet struct {
	rw, ro        []probeTxn
	single, cross []probeTxn // the read-write ones by footprint; sharded workloads only
}

func drawProbes(w workload, seed int64, n int) probeSet {
	g := newGenerator(w, clientSeed(seed, probeStream))
	var ps probeSet
	take := func(dst *[]probeTxn, t probeTxn) {
		if len(*dst) < n {
			*dst = append(*dst, t)
		}
	}
	full := func() bool {
		if len(ps.rw) < n || len(ps.ro) < n {
			return false
		}
		return w.Shards <= 1 || (len(ps.single) == n && len(ps.cross) == n)
	}
	for i := 0; i < 1000*n && !full(); i++ {
		t := probeTxn{txn: g.next(), idx: i}
		switch {
		case t.ReadOnly:
			take(&ps.ro, t)
		default:
			take(&ps.rw, t)
			if w.Shards > 1 && t.Cross {
				take(&ps.cross, t)
			} else if w.Shards > 1 {
				take(&ps.single, t)
			}
		}
	}
	return ps
}

// execOps runs a transaction's operations against a backend view, the
// way the server's one-shot path does.
func execOps(v backend.View, tops []kvapi.Op) error {
	for _, op := range tops {
		var err error
		switch op.Kind {
		case kvapi.OpGet:
			_, _, err = v.Get(op.Key)
		case kvapi.OpPut:
			err = v.Put(op.Key, op.Val)
		default:
			tv, ok := v.(backend.TypedView)
			if !ok {
				return fmt.Errorf("substrate has no typed view for %v", op.Kind)
			}
			_, _, err = tv.Typed(ops.Code(op.Kind), op.Key, op.Val, op.Arg)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func shardOps(tops []kvapi.Op) []shard.Op {
	out := make([]shard.Op, len(tops))
	for i, op := range tops {
		out[i] = shard.Op{Kind: shard.OpKind(op.Kind), Key: op.Key, Val: op.Val, Arg: op.Arg}
	}
	return out
}

// probe runs the whole ladder for one workload and returns the probe
// metrics. image is the durable image the preload left.
func probe(w workload, cfg runConfig, image walImage, tr *tracer) (results, error) {
	res := results{}
	ps := drawProbes(w, cfg.seed, cfg.probes)

	// kvapi: the codec alone, no socket.
	okResp := kvapi.Response{Status: kvapi.StatusOK, Results: make([]kvapi.Result, opsPerTxn)}
	var reqBuf, respBuf []byte
	codec, err := tr.rung("kvapi.codec", ps.rw, true, func(t probeTxn) error {
		reqBuf = kvapi.AppendRequest(reqBuf[:0], kvapi.Request{Type: kvapi.MsgTxn, Ops: t.Ops})
		if _, err := kvapi.DecodeRequest(reqBuf); err != nil {
			return err
		}
		respBuf = kvapi.AppendResponse(respBuf[:0], okResp)
		_, err := kvapi.DecodeResponse(respBuf)
		return err
	})
	if err != nil {
		return nil, err
	}
	res["kvapi.codec_us"] = codec.med
	res["kvapi.codec_allocs"] = value{V: codec.allocs}

	// backend: the bare substrate, then the same with the shadow
	// certifier. No WAL under either.
	atomicRung := func(name string, disableCert bool) (rungResult, error) {
		be, err := backend.NewBackend(backend.Config{
			Substrate: w.Substrate, Keys: w.Keys, Seed: 1,
			DisableCert: disableCert, Retry: chaos.Default(1),
		})
		if err != nil {
			return rungResult{}, err
		}
		return tr.rung(name, ps.rw, true, func(t probeTxn) error {
			return be.Atomic(fmt.Sprintf("p%d", t.idx), func(v backend.View) error { return execOps(v, t.Ops) })
		})
	}
	raw, err := atomicRung("backend.atomic_raw", true)
	if err != nil {
		return nil, err
	}
	cert, err := atomicRung("backend.atomic_cert", false)
	if err != nil {
		return nil, err
	}
	res["backend.atomic_raw_us"] = raw.med
	res["backend.atomic_raw_allocs"] = value{V: raw.allocs}
	res["backend.atomic_cert_us"] = cert.med
	res["backend.atomic_cert_allocs"] = value{V: cert.allocs}
	res["trace.certify_self_us"] = value{V: cert.med.V - raw.med.V}

	// wal: the preload's own records appended to a fresh file-backed
	// log, forced at every commit the way the server forces it.
	walRes, barrierUs, err := probeWAL(cfg, image, tr)
	if err != nil {
		return nil, err
	}
	for k, v := range walRes {
		res[k] = v
	}

	// shard: a standalone engine, WALs in memory so that the rung holds
	// routing, prepare/commit and the coordinator log but not the disk.
	engineUs := cert.med.V // what server.DoTxn sits on, unsharded
	if w.Shards > 1 {
		shardRes, mixUs, err := probeShard(w, ps, tr)
		if err != nil {
			return nil, err
		}
		for k, v := range shardRes {
			res[k] = v
		}
		engineUs = mixUs
	} else {
		// No such layer on one shard; the driver wants the names anyway.
		for _, name := range []string{"shard.do_single_us", "shard.do_cross_mutex_us", "shard.do_cross_seq_us", "seq.txns_per_epoch"} {
			res[name] = value{}
		}
	}

	// server: DoTxn in-process, the same over one TCP connection (twice,
	// spans on and off), and the read-only path on the state the
	// round-trip rung left behind.
	var dotxn, rtOn, rtOff, readonly, snap rungResult
	err = freshServer(w, cfg, func(srv *server.Server, _ *kvapi.Client) (err error) {
		dotxn, err = tr.rung("server.dotxn", ps.rw, true, func(t probeTxn) error {
			return okStatus(srv.DoTxn(t.Ops), nil)
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	err = freshServer(w, cfg, func(srv *server.Server, c *kvapi.Client) (err error) {
		rtOn, err = tr.rung("kvapi.roundtrip", ps.rw, true, func(t probeTxn) error {
			return okStatus(c.Do(t.Ops))
		})
		if err != nil {
			return err
		}
		readonly, err = tr.rung("server.readonly", ps.ro, true, func(t probeTxn) error {
			return okStatus(c.DoReadOnly(t.Ops))
		})
		if err != nil {
			return err
		}
		snap, err = tr.rung("mvcc.snapshot_read", ps.ro, true, func(t probeTxn) error {
			return snapshotRead(srv, t.Ops)
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	err = freshServer(w, cfg, func(_ *server.Server, c *kvapi.Client) (err error) {
		rtOff, err = tr.rung("kvapi.roundtrip", ps.rw, false, func(t probeTxn) error {
			return okStatus(c.Do(t.Ops))
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	res["server.dotxn_us"] = dotxn.med
	res["server.self_us"] = value{V: dotxn.med.V - engineUs - barrierUs}
	res["kvapi.roundtrip_us"] = rtOn.med
	res["kvapi.transport_self_us"] = value{V: rtOn.med.V - dotxn.med.V}
	res["trace.overhead_ratio"] = value{V: (rtOn.med.V - rtOff.med.V) / rtOff.med.V}
	res["server.readonly_us"] = readonly.med
	res["mvcc.snapshot_read_us"] = snap.med

	// repl and recovery: what a follower and a restart make of the
	// preload's image.
	recRes, err := probeImage(w, image, tr)
	if err != nil {
		return nil, err
	}
	for k, v := range recRes {
		res[k] = v
	}
	return res, nil
}

// freshServer boots the workload's server on an empty WAL directory,
// hands it and a client connected to it to fn, and checks it afterwards.
// Every server rung gets its own: a server slows as it ages, so a rung
// that inherited another's server would be charged for the difference.
func freshServer(w workload, cfg runConfig, fn func(*server.Server, *kvapi.Client) error) error {
	dir, err := os.MkdirTemp(cfg.dir, "probe-")
	if err != nil {
		return err
	}
	srv, err := server.New(w.serverOptions(dir))
	if err != nil {
		return err
	}
	defer srv.Stop()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	c, err := kvapi.Dial(addr.String())
	if err != nil {
		return err
	}
	defer c.Close()
	if err := fn(srv, c); err != nil {
		return err
	}
	c.Close()
	srv.Stop()
	if err := srv.FinalCheck(); err != nil {
		return fmt.Errorf("probe server FinalCheck: %w", err)
	}
	return nil
}

func okStatus(resp kvapi.Response, err error) error {
	if err != nil {
		return err
	}
	if resp.Status != kvapi.StatusOK {
		return fmt.Errorf("%s %s", resp.Status, resp.Msg)
	}
	return nil
}

// snapshotRead is the read-only path with no server around it: pin a
// snapshot, read, unpin.
func snapshotRead(srv *server.Server, tops []kvapi.Op) error {
	key := func(op kvapi.Op) uint64 {
		if op.Kind == kvapi.OpCGet {
			return ops.KeyBit | op.Key
		}
		return op.Key
	}
	if eng := srv.Engine(); eng != nil {
		cut, err := eng.SnapshotCut()
		if err != nil {
			return err
		}
		for _, op := range tops {
			cut.Get(key(op))
		}
		cut.Close()
		return nil
	}
	store := srv.Backend().Snapshots()
	if store == nil {
		return errors.New("no snapshot store")
	}
	sn := store.Snapshot()
	for _, op := range tops {
		sn.Get(key(op))
	}
	sn.Close()
	return nil
}

// imageRecords decodes every record of the image's shard logs.
func imageRecords(image walImage) ([]wal.Record, error) {
	var recs []wal.Record
	for _, segs := range image.shardSegs() {
		for _, seg := range segs {
			if _, err := wal.CheckSegmentHeader(seg); err != nil {
				return nil, err
			}
			body, _, reason := wal.DecodeAll(seg[wal.SegHeaderLen:])
			if reason != nil {
				return nil, fmt.Errorf("preload image does not decode cleanly: %w", reason)
			}
			recs = append(recs, body...)
		}
	}
	return recs, nil
}

func probeWAL(cfg runConfig, image walImage, tr *tracer) (results, float64, error) {
	recs, err := imageRecords(image)
	if err != nil {
		return nil, 0, err
	}
	commit := 0
	for _, r := range recs {
		if r.Type == wal.TCommit {
			commit++
		}
	}
	if commit == 0 {
		return nil, 0, errors.New("preload image holds no commit record")
	}
	dir, err := os.MkdirTemp(cfg.dir, "walprobe-")
	if err != nil {
		return nil, 0, err
	}
	// The server opens its log unsynced and forces it at the commit
	// barrier; this does the same.
	log, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		return nil, 0, err
	}
	defer log.Close()
	force := backend.ForceSync(log)
	// Appends and barriers interleave in log order; each gets its own
	// pass span and the two lists are walked together.
	appendPass, barrierPass := len(tr.spans), len(tr.spans)+1
	start := tr.now()
	tr.spans = append(tr.spans,
		span{Name: "wal.append", StartNs: start, Parent: -1, Txn: -1},
		span{Name: "wal.barrier", StartNs: start, Parent: -1, Txn: -1})
	var appendUs, barrierUs []float64
	commit = 0
	for i, r := range recs {
		s := tr.now()
		if err := log.Append(r); err != nil {
			return nil, 0, err
		}
		e := tr.now()
		tr.spans = append(tr.spans, span{Name: "wal.append", StartNs: s, EndNs: e, Parent: appendPass, Txn: i})
		appendUs = append(appendUs, float64(e-s)/1e3)
		if r.Type != wal.TCommit {
			continue
		}
		s = tr.now()
		if err := force.CommitBarrier(); err != nil {
			return nil, 0, err
		}
		e = tr.now()
		tr.spans = append(tr.spans, span{Name: "wal.barrier", StartNs: s, EndNs: e, Parent: barrierPass, Txn: commit})
		barrierUs = append(barrierUs, float64(e-s)/1e3)
		commit++
	}
	end := tr.now()
	tr.spans[appendPass].EndNs, tr.spans[barrierPass].EndNs = end, end
	if err := log.Close(); err != nil {
		return nil, 0, err
	}
	bUs := median(barrierUs)
	return results{
		"wal.append_us":          {V: median(appendUs), N: len(appendUs)},
		"wal.barrier_us":         {V: bUs, N: len(barrierUs)},
		"wal.records_per_commit": {V: float64(len(recs)) / float64(commit)},
	}, bUs, nil
}

func probeShard(w workload, ps probeSet, tr *tracer) (results, float64, error) {
	engine := func(seq bool) (*shard.Engine, error) {
		return shard.New(shard.Options{
			Shards: w.Shards, Substrate: w.Substrate, Keys: w.Keys,
			Durable: true, SyncPolicy: syncPolicy, Seq: seq,
		})
	}
	do := func(e *shard.Engine) func(probeTxn) error {
		return func(t probeTxn) error {
			_, _, err := e.Do(shardOps(t.Ops))
			return err
		}
	}
	mutex, err := engine(false)
	if err != nil {
		return nil, 0, err
	}
	defer mutex.Close()
	single, err := tr.rung("shard.do_single", ps.single, true, do(mutex))
	if err != nil {
		return nil, 0, err
	}
	crossMutex, err := tr.rung("shard.do_cross_mutex", ps.cross, true, do(mutex))
	if err != nil {
		return nil, 0, err
	}
	seq, err := engine(true)
	if err != nil {
		return nil, 0, err
	}
	defer seq.Close()
	crossSeq, err := tr.rung("shard.do_cross_seq", ps.cross, true, do(seq))
	if err != nil {
		return nil, 0, err
	}
	ss := seq.SeqStats()
	if ss.Epochs == 0 {
		return nil, 0, errors.New("the sequencer sealed no epoch")
	}
	// What server.DoTxn sits on here is the engine under the probe
	// stream's own mix of footprints.
	nCross := 0
	for _, t := range ps.rw {
		if t.Cross {
			nCross++
		}
	}
	share := float64(nCross) / float64(len(ps.rw))
	mix := share*crossMutex.med.V + (1-share)*single.med.V
	return results{
		"shard.do_single_us":      single.med,
		"shard.do_cross_mutex_us": crossMutex.med,
		"shard.do_cross_seq_us":   crossSeq.med,
		"seq.txns_per_epoch":      {V: float64(ss.Batched) / float64(ss.Epochs)},
	}, mix, nil
}

// probeImage prices the preload's durable image for a follower (repl)
// and for a restart (recovery), the latter on the whole image and on
// its first half: certify_ms well above twice certify_ms_half is the
// superlinearity.
func probeImage(w workload, image walImage, tr *tracer) (results, error) {
	res := results{}
	reg, err := backend.RegistryFor(w.Substrate)
	if err != nil {
		return nil, err
	}

	// repl: ship every segment of every stream to an empty replica.
	rep := repl.NewReplica(repl.Config{Substrate: w.Substrate, Shards: w.Shards, Keys: w.Keys})
	applyMs, err := tr.once("repl.apply", func() error {
		for s, segs := range image.shardSegs() {
			for i, seg := range segs {
				if err := rep.Apply(repl.Batch{Stream: s, Seg: i, Data: seg}); err != nil {
					return err
				}
			}
		}
		if image.multi != nil && len(image.multi.Coord) > 0 {
			return rep.Apply(repl.Batch{Stream: w.Shards, Data: image.multi.Coord})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("repl.apply: %w", err)
	}
	commits := 0
	for _, ss := range rep.Stats().Streams[:w.Shards] {
		commits += ss.Committed
	}
	if commits == 0 {
		return nil, errors.New("the replica folded no commit")
	}
	res["repl.apply_us_per_commit"] = value{V: applyMs * 1e3 / float64(commits), N: commits}

	// recovery: replay, then certify the whole and the first half.
	var states []recovery.State
	replayMs, err := tr.once("recovery.replay", func() error {
		for _, segs := range image.shardSegs() {
			r := recovery.Recover(segs)
			if !r.Ok() || r.Truncated != nil {
				return fmt.Errorf("replay: %s", r)
			}
			states = append(states, r.State)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	certify := func(name string, half bool) (float64, error) {
		return tr.once(name, func() error {
			for _, st := range states {
				if half {
					st = recovery.State{Txns: st.Txns[:len(st.Txns)/2]}
				}
				if err := recovery.Certify(st, reg); err != nil {
					return err
				}
			}
			return nil
		})
	}
	certMs, err := certify("recovery.certify", false)
	if err != nil {
		return nil, err
	}
	halfMs, err := certify("recovery.certify_half", true)
	if err != nil {
		return nil, err
	}
	if image.multi != nil {
		// The sharded certificate proper: coordinator resolution and the
		// merged commit order on top of the per-shard ones. Checked, and
		// kept as a span; the per-shard sums above are the metrics.
		if _, err := tr.once("recovery.image", func() error {
			_, err := shard.RecoverAndCertifyImage(image.multi, w.Substrate)
			return err
		}); err != nil {
			return nil, err
		}
	}
	res["recovery.replay_ms"] = value{V: replayMs}
	res["recovery.certify_ms"] = value{V: certMs}
	res["recovery.certify_ms_half"] = value{V: halfMs}
	return res, nil
}
