// Command pushpull-server serves the transactional KV store over the
// kvapi binary protocol, with a JSON/HTTP fallback and the
// observability suite on the side:
//
//	pushpull-server -addr :7070 -http :7071 -substrate tl2 -wal-dir ./wal
//
// Every client transaction runs as a certified Push/Pull transaction on
// the chosen substrate, through one shard.Engine of -shards partitions
// (default 1). With -wal-dir the server is crash-durable: on boot the
// engine replays the previous epoch's logs, refuses to serve unless the
// committed prefix re-certifies, archives them, and re-checkpoints the
// recovered state into fresh logs before the listener opens. -chaos-rate and -crash-at inject server-side faults
// (the same plans the chaos harnesses replay).
//
// SIGINT/SIGTERM shut down gracefully: open transactions abort, the
// leak check runs, and the final certificate is printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"pushpull/internal/backend"
	"pushpull/internal/chaos"
	"pushpull/internal/server"
	"pushpull/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "binary-protocol listen address")
	httpAddr := flag.String("http", "", "JSON/HTTP listen address (empty disables)")
	substrate := flag.String("substrate", "tl2",
		"TM substrate: "+strings.Join(backend.Substrates(), " | "))
	keys := flag.Int("keys", 64, "word-substrate key range (restart must reuse it)")
	shards := flag.Int("shards", 1, "hash partitions of the engine (restart must reuse it)")
	seqMode := flag.Bool("seq", false, "commit cross-shard transactions through the deterministic sequencer (one forced batch record per epoch) instead of the coordinator mutex")
	batchInterval := flag.Duration("batch-interval", 0, "sequencer accumulation window under -seq (0 = adaptive group commit)")
	seed := flag.Int64("seed", 1, "retry/chaos seed")
	walDir := flag.String("wal-dir", "", "WAL directory (empty: in-memory durability only)")
	sync := flag.String("sync", "commit", "WAL sync policy: commit (one fsync per group-commit barrier, outside every lock) | record | group | none")
	groupEvery := flag.Int("group-every", 32, "records per sync under -sync group")
	maxInflight := flag.Int("max-inflight", 64, "max concurrently running transactions")
	maxQueue := flag.Int("max-queue", 128, "max admission-queue depth (beyond it: StatusBusy)")
	chaosRate := flag.Float64("chaos-rate", 0, "per-site fault probability injected server-side")
	crashAt := flag.Uint64("crash-at", 0, "simulated process death at the n-th WAL append (0 = never)")
	noCert := flag.Bool("no-cert", false, "disable shadow-machine certification (raw throughput)")
	replicate := flag.Bool("replicate", false, "serve the replication poll endpoint (followers can stream this server's WALs)")
	follow := flag.String("follow", "", "run as a read-only follower of the primary at this address")
	advertise := flag.String("advertise", "", "address writes are redirected to (follower mode; default: the -follow address)")
	epoch := flag.Uint64("epoch", 0, "serving epoch branded into the coordinator log (promotions pass predecessor+1)")
	flag.Parse()

	policy, err := wal.ParseSyncPolicy(*sync)
	if err != nil {
		fail(err)
	}
	opts := server.Options{
		Substrate: *substrate, Keys: *keys, Seed: *seed, Shards: *shards,
		Seq: *seqMode, BatchInterval: *batchInterval,
		DisableCert: *noCert,
		MaxInflight: *maxInflight, MaxQueue: *maxQueue,
		WALDir: *walDir, SyncPolicy: policy, GroupEvery: *groupEvery,
		Replicate: *replicate, Follow: *follow, Advertise: *advertise,
		Epoch: *epoch,
	}
	if *chaosRate > 0 || *crashAt > 0 {
		plan := chaos.NewPlan(*seed)
		if *chaosRate > 0 {
			for _, site := range chaos.Sites() {
				plan = plan.WithRate(site, *chaosRate)
			}
		}
		if *crashAt > 0 {
			plan = plan.WithCrash(*crashAt, chaos.CrashClean)
		}
		opts.Plan = &plan
	}

	s, err := server.New(opts)
	if err != nil {
		fail(err)
	}
	if rep := s.ShardRecovered(); rep.RecoveredTxns() > 0 || rep.InDoubtResolved > 0 {
		fmt.Printf("recovered %d certified transaction(s) across %d shard log(s); %d in-doubt cross-shard commit(s) rolled forward, %d left in doubt\n",
			rep.RecoveredTxns(), len(rep.Shards), rep.InDoubtResolved, rep.InDoubt)
	}

	bound, err := s.Start(*addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("pushpull-server: substrate=%s keys=%d shards=%d listening on %s\n", *substrate, *keys, *shards, bound)
	if *httpAddr != "" {
		hb, err := s.StartHTTP(*httpAddr)
		if err != nil {
			fail(err)
		}
		fmt.Printf("pushpull-server: http on %s (/txn /healthz /stats /debug/pushpull)\n", hb)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("\npushpull-server: shutting down")
	s.Stop()

	st := s.Stats()
	fmt.Printf("served: commits=%d aborts=%d rejected=%d group=%d/%d syncs\n",
		st.Commits, st.Aborts, st.Rejected, st.GroupBarriers, st.GroupSyncs)
	if st.Shards > 1 {
		fmt.Printf("sharded: shards=%d cross_commits=%d cross_aborts=%d redos=%d\n",
			st.Shards, st.CrossCommits, st.CrossAborts, st.Redos)
	}
	if st.SeqEpochs > 0 {
		fmt.Printf("sequenced: epochs=%d batched=%d max_batch=%d\n",
			st.SeqEpochs, st.SeqBatched, st.SeqMaxBatch)
	}
	failed := false
	if err := s.LeakCheck(); err != nil {
		fmt.Fprintln(os.Stderr, "LEAK:", err)
		failed = true
	}
	if st.WALCrashed {
		fmt.Println("WAL: simulated crash fired; restart with the same -wal-dir to recover")
	} else if err := s.FinalCheck(); err != nil {
		fmt.Fprintln(os.Stderr, "CERTIFICATION FAILED:", err)
		failed = true
	} else {
		fmt.Println("certified: commit order serializable, no leaks")
	}
	if failed {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pushpull-server:", err)
	os.Exit(1)
}
