package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"pushpull/internal/kvapi"
	"pushpull/internal/server"
	"pushpull/internal/shard"
	"pushpull/internal/wal"
)

// The load shape, identical on every workload: a closed loop of
// numClients connections, one goroutine each, each sending its next
// transaction when the previous one's final reply has arrived.
const (
	numClients = 2
	// maxResubmits bounds how often a client sends the same transaction
	// again after the server gave up on it (retry budget spent) or
	// refused it (admission control). A real caller does the same; the
	// latency of the transaction spans every send.
	maxResubmits = 32
)

// syncPolicy is the flush policy of every server and every WAL probe
// in the benchmark; it is stamped in the output.
const syncPolicy = wal.SyncOnCommit

// runConfig is the size of one run. Only -smoke and --seconds change it.
type runConfig struct {
	seed    int64
	window  time.Duration
	warmup  time.Duration
	preload int // read-write transactions loaded before the restart
	trials  int // fresh servers the measured time is split over; medians are reported
	probes  int // calls per probe rung in the traced pass
	dir     string
	// corruptModel plants one wrong expected value in the model — the
	// way to see the durability check fail.
	corruptModel bool
}

func (w workload) serverOptions(walDir string) server.Options {
	return server.Options{
		Substrate: w.Substrate, Keys: w.Keys, Shards: w.Shards,
		WALDir: walDir, SyncPolicy: syncPolicy,
	}
}

// walImage is the durable image a preload left behind, in whichever
// form the server shape writes it.
type walImage struct {
	segs  [][]byte     // unsharded: wal-*.seg images
	multi *shard.Image // sharded: per-shard segments + coordinator log
}

func readWALImage(w workload, dir string) (walImage, error) {
	if w.Shards > 1 {
		img, found, err := shard.ReadImageDir(dir)
		if err != nil {
			return walImage{}, err
		}
		if found != w.Shards {
			return walImage{}, fmt.Errorf("WAL image has %d shard logs, want %d", found, w.Shards)
		}
		return walImage{multi: img}, nil
	}
	segs, err := wal.ReadDir(dir)
	return walImage{segs: segs}, err
}

// shardSegs lists the per-shard segment images (one entry unsharded).
func (im walImage) shardSegs() [][][]byte {
	if im.multi != nil {
		return im.multi.Shards
	}
	return [][][]byte{im.segs}
}

// counters is one reading of everything the window reports as a delta.
type counters struct {
	stats    server.Stats
	walBytes int64
	mem      runtime.MemStats
	cpu      time.Duration
}

func readCounters(s *server.Server, walDir string) (counters, error) {
	var c counters
	c.stats = s.Stats()
	var err error
	if c.walBytes, err = dirSize(walDir); err != nil {
		return c, err
	}
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return c, nil
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

// tally is what one client saw inside the measured window.
type tally struct {
	rwMs, roMs  []float64 // latency of transactions whose final outcome was OK
	attempted   int
	failed      int    // final outcome not OK: abort or busy after every resubmit, or error
	failure     string // the first failed transaction's final reply, for the reader
	roNotOK     int    // read-only transactions must never fail; counted apart
	retries     uint64 // server-side substrate retries, summed over replies
	resubmits   uint64
	commuteHits uint64
	typedOps    uint64
}

// runClient is one closed-loop client. It sends from now until end and
// tallies the transactions that both started and finished inside
// [start, end]; the ones before start are the warm-up.
func runClient(addr string, g *generator, start, end time.Time) (tally, error) {
	var t tally
	c, err := kvapi.Dial(addr)
	if err != nil {
		return t, err
	}
	defer c.Close()
	for {
		t0 := time.Now()
		if !t0.Before(end) {
			return t, nil
		}
		tx := g.next()
		resp, retries, resubmits, err := submit(c, tx)
		if err != nil {
			return t, fmt.Errorf("transport: %w", err)
		}
		t1 := time.Now()
		if t0.Before(start) || t1.After(end) {
			continue
		}
		t.attempted++
		t.retries += retries
		t.resubmits += resubmits
		ms := float64(t1.Sub(t0)) / float64(time.Millisecond)
		switch {
		case resp.Status != kvapi.StatusOK:
			t.failed++
			if t.failure == "" {
				t.failure = fmt.Sprintf("%s after %d resubmit(s): %s", resp.Status, resubmits, resp.Msg)
			}
			if tx.ReadOnly {
				t.roNotOK++
			}
		case len(resp.Results) != len(tx.Ops):
			return t, fmt.Errorf("reply has %d results for %d ops", len(resp.Results), len(tx.Ops))
		case tx.ReadOnly:
			t.roMs = append(t.roMs, ms)
		default:
			t.rwMs = append(t.rwMs, ms)
			t.commuteHits += resp.CommuteHits
			if g.w.Typed {
				t.typedOps += uint64(len(tx.Ops))
			}
		}
	}
}

// submit sends one transaction until its outcome is final.
func submit(c *kvapi.Client, tx txn) (resp kvapi.Response, retries, resubmits uint64, err error) {
	if tx.ReadOnly {
		resp, err = c.DoReadOnly(tx.Ops)
		return resp, 0, 0, err
	}
	for {
		resp, err = c.Do(tx.Ops)
		if err != nil {
			return resp, retries, resubmits, err
		}
		retries += uint64(resp.Retries)
		again := resp.Status == kvapi.StatusAborted || resp.Status == kvapi.StatusBusy
		if !again || resubmits == maxResubmits {
			return resp, retries, resubmits, nil
		}
		if resp.Status == kvapi.StatusBusy {
			time.Sleep(time.Duration(resp.RetryAfterMs) * time.Millisecond)
		}
		resubmits++
	}
}

// preloaded is a server after set-up: stopped, its WAL on disk.
type preloaded struct {
	dir    string
	model  *model
	setupS float64
}

// setUp boots a fresh server on an empty WAL directory, loads
// cfg.preload read-write transactions from one client one at a time,
// checks every answer against the model, and stops the server.
func setUp(w workload, cfg runConfig, dir string) (preloaded, error) {
	t0 := time.Now()
	srv, err := server.New(w.serverOptions(dir))
	if err != nil {
		return preloaded{}, fmt.Errorf("boot: %w", err)
	}
	defer srv.Stop()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return preloaded{}, fmt.Errorf("listen: %w", err)
	}
	c, err := kvapi.Dial(addr.String())
	if err != nil {
		return preloaded{}, err
	}
	defer c.Close()
	g := newGenerator(w, preloadSeed)
	m := newModel()
	for i := 0; i < cfg.preload; i++ {
		tx := g.nextRW()
		resp, err := c.Do(tx.Ops)
		if err != nil {
			return preloaded{}, fmt.Errorf("preload txn %d: %w", i, err)
		}
		if resp.Status != kvapi.StatusOK {
			return preloaded{}, fmt.Errorf("preload txn %d: %s %s", i, resp.Status, resp.Msg)
		}
		if err := m.apply(tx, resp.Results); err != nil {
			return preloaded{}, fmt.Errorf("preload txn %d: %w", i, err)
		}
	}
	// The deferred Close and Stop run before the caller reads the WAL.
	return preloaded{dir: dir, model: m, setupS: time.Since(t0).Seconds()}, nil
}

// restart times server.New on a preloaded directory — replay,
// re-certification and the restart checkpoint — then checks over the
// wire that every cell the model holds reads back with its value.
func restart(w workload, p preloaded) (*server.Server, string, float64, error) {
	t0 := time.Now()
	srv, err := server.New(w.serverOptions(p.dir))
	if err != nil {
		return nil, "", 0, fmt.Errorf("restart: %w", err)
	}
	restartS := time.Since(t0).Seconds()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Stop()
		return nil, "", 0, fmt.Errorf("listen: %w", err)
	}
	if err := checkDurable(addr.String(), p.model); err != nil {
		srv.Stop()
		return nil, "", 0, fmt.Errorf("durability: %w", err)
	}
	return srv, addr.String(), restartS, nil
}

func checkDurable(addr string, m *model) error {
	c, err := kvapi.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	txns, want := m.readBack()
	if len(txns) == 0 {
		return errors.New("the preload wrote nothing to read back")
	}
	for i, tx := range txns {
		resp, err := c.Do(tx.Ops)
		if err != nil {
			return err
		}
		if resp.Status != kvapi.StatusOK || len(resp.Results) != len(tx.Ops) {
			return fmt.Errorf("read-back %d: %s %s", i, resp.Status, resp.Msg)
		}
		for j, r := range resp.Results {
			if r.Val != want[i][j] {
				return fmt.Errorf("%v key %d reads %d after restart, model says %d",
					tx.Ops[j].Kind, tx.Ops[j].Key, r.Val, want[i][j])
			}
		}
	}
	return nil
}

// trial is one server instance taken through the whole shape: set-up,
// restart, warm-up, measured window, verification.
type trial struct {
	setupS, restartS float64
	window           time.Duration
	clients          tally // both clients merged
	before, after    counters
}

// measured is one run: cfg.trials independent trials, and the durable
// image the preload left (the same on every trial) for the probes.
type measured struct {
	trials []trial
	image  walImage
}

// measure runs one workload. The measured time is split over
// cfg.trials fresh servers and every metric is the median across them:
// on this system a server instance settles into a pace of its own for
// its whole life, so one long window on one instance repeats worse than
// the median of three short ones. Any failed check is an error and the
// caller prints no metric.
func measure(w workload, cfg runConfig) (measured, error) {
	var out measured
	for j := 0; j < cfg.trials; j++ {
		t, image, err := runTrial(w, cfg, j)
		if err != nil {
			return out, fmt.Errorf("trial %d: %w", j, err)
		}
		out.trials, out.image = append(out.trials, t), image
	}
	return out, nil
}

func runTrial(w workload, cfg runConfig, j int) (trial, walImage, error) {
	var out trial
	// cfg.dir is the run's scratch directory; main removes it whole.
	dir, err := os.MkdirTemp(cfg.dir, "wal-")
	if err != nil {
		return out, walImage{}, err
	}
	p, err := setUp(w, cfg, dir)
	if err != nil {
		return out, walImage{}, err
	}
	if cfg.corruptModel {
		for _, cells := range []map[uint64]int64{p.model.kv, p.model.counters} {
			for _, k := range sortedKeys(cells) {
				cells[k]++
				break
			}
		}
	}
	image, err := readWALImage(w, dir)
	if err != nil {
		return out, image, err
	}
	srv, addr, restartS, err := restart(w, p)
	if err != nil {
		return out, image, err
	}
	defer srv.Stop()
	out.setupS, out.restartS, out.window = p.setupS, restartS, cfg.window/time.Duration(cfg.trials)

	start := time.Now().Add(cfg.warmup)
	end := start.Add(out.window)
	tallies := make([]tally, numClients)
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := newGenerator(w, clientSeed(cfg.seed, j*numClients+i))
			tallies[i], errs[i] = runClient(addr, g, start, end)
		}(i)
	}
	var cerr error
	time.Sleep(time.Until(start))
	out.before, cerr = readCounters(srv, dir)
	time.Sleep(time.Until(end))
	if cerr == nil {
		out.after, cerr = readCounters(srv, dir)
	}
	wg.Wait()
	srv.Stop()

	if cerr != nil {
		return out, image, cerr
	}
	for i, err := range errs {
		if err != nil {
			return out, image, fmt.Errorf("client %d: %w", i, err)
		}
		out.clients.merge(tallies[i])
	}
	if err := srv.FinalCheck(); err != nil {
		return out, image, fmt.Errorf("FinalCheck: %w", err)
	}
	if err := srv.LeakCheck(); err != nil {
		return out, image, fmt.Errorf("LeakCheck: %w", err)
	}
	if n := out.clients.roNotOK; n != 0 {
		return out, image, fmt.Errorf("%d read-only transaction(s) did not commit", n)
	}
	if d := out.after.stats.ROAborts - out.before.stats.ROAborts; d != 0 {
		return out, image, fmt.Errorf("server counted %d read-only abort(s)", d)
	}
	if len(out.clients.rwMs) == 0 || len(out.clients.roMs) == 0 {
		return out, image, errors.New("a transaction class committed nothing inside the window")
	}
	return out, image, nil
}

func (t *tally) merge(o tally) {
	t.rwMs = append(t.rwMs, o.rwMs...)
	t.roMs = append(t.roMs, o.roMs...)
	t.attempted += o.attempted
	t.failed += o.failed
	if t.failure == "" {
		t.failure = o.failure
	}
	t.roNotOK += o.roNotOK
	t.retries += o.retries
	t.resubmits += o.resubmits
	t.commuteHits += o.commuteHits
	t.typedOps += o.typedOps
}

func sortedKeys(m map[uint64]int64) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}
