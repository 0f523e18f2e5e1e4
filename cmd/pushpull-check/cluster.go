package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"pushpull/internal/kvapi"
	"pushpull/internal/server"
)

// The cluster subcommand exercises replicated serving on real sockets:
//
//	pushpull-check cluster -replicas 2
//
// boots a real primary and N follower servers on loopback under a
// supervisor, pushes sessioned redirect-following client traffic
// through a follower, kills the primary, and waits for the supervisor
// to certify and auto-promote a successor at the next lease epoch; a
// blind session retry must dedup on the new primary, and everyone is
// certified at shutdown. (`pushpull-check failover` is the seeded,
// in-process sweep of the same contract.)

func clusterCmd(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	replicas := fs.Int("replicas", 2, "follower servers beside the primary")
	shards := fs.Int("shards", 4, "primary shard count")
	keys := fs.Int("keys", 16, "key range per shard")
	threads := fs.Int("threads", 4, "with -ops: the client issues threads x ops writes")
	ops := fs.Int("ops", 40, "with -threads: the client issues threads x ops writes")
	seed := fs.Int64("seed", 1, "server and client seed")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *replicas < 1 {
		fmt.Fprintln(stderr, "pushpull-check cluster: need -replicas >= 1")
		return errUsage
	}
	return runCluster(stdout, *shards, *keys, *replicas, *threads**ops, *seed)
}

// runCluster boots a live loopback cluster — one replicated primary,
// N followers, a lease-granting supervisor — then kills the primary
// and lets supervision promote a successor on its own. Nothing in this
// function calls Promote or Refollow: the point is that failover is
// automatic, fenced by lease epochs, and the sessioned client's
// retries land exactly once.
func runCluster(out io.Writer, shards, keysPerShard, replicas, txns int, seed int64) error {
	keys := keysPerShard * shards
	const ttl = 500 * time.Millisecond
	prim, err := server.New(server.Options{
		Substrate: "tl2", Shards: shards, Keys: keys, Seed: seed,
		Replicate: true, SegmentBytes: 4 << 10, LeaseTTL: ttl,
	})
	if err != nil {
		return err
	}
	defer prim.Stop()
	addrP, err := prim.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "primary: %s (epoch %d)\n", addrP, prim.Stats().Epoch)

	followers := make([]*server.Server, replicas)
	addrs := make([]string, replicas)
	for i := range followers {
		f, err := server.New(server.Options{
			Substrate: "tl2", Shards: shards, Keys: keys, Seed: seed + int64(i) + 1,
			Follow: addrP.String(), PollInterval: 2 * time.Millisecond,
			LeaseTTL: ttl,
		})
		if err != nil {
			return err
		}
		defer f.Stop()
		a, err := f.Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		followers[i], addrs[i] = f, a.String()
		fmt.Fprintf(out, "follower %d: %s -> %s\n", i, addrs[i], addrP)
	}

	nodes := []*server.Node{{Name: "primary", Server: prim, Addr: addrP.String()}}
	for i, f := range followers {
		nodes = append(nodes, &server.Node{
			Name: fmt.Sprintf("follower-%d", i), Server: f, Addr: addrs[i],
		})
	}
	sv, err := server.NewSupervisor(nodes, 0, server.SupervisorOptions{
		HeartbeatEvery: 5 * time.Millisecond,
		FailAfter:      3,
		Margin:         100 * time.Millisecond,
		DialTimeout:    100 * time.Millisecond,
		OnEvent:        func(e string) { fmt.Fprintln(out, "supervisor:", e) },
	})
	if err != nil {
		return err
	}
	sv.Start()
	defer sv.Stop()

	// Sessioned client traffic aimed at a follower: every write must
	// redirect to the primary and land; the ledger of acknowledged
	// writes is the zero-loss obligation for the failover below, and
	// the session sequence numbers are the exactly-once obligation.
	fallbacks := append([]string{addrP.String()}, addrs...)
	rc := kvapi.NewReconnectClient(addrs[0], kvapi.ReconnectOptions{
		Seed: seed + 99, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond,
		Session: uint64(seed) + 1, Fallbacks: fallbacks,
	})
	defer rc.Close()
	acked := make(map[uint64]int64)
	for i := 0; i < txns; i++ {
		k, v := uint64(i%keys), int64(1000+i)
		resp, err := rc.Do([]kvapi.Op{{Kind: kvapi.OpPut, Key: k, Val: v}})
		if err != nil {
			return fmt.Errorf("write %d: %w", i, err)
		}
		if resp.Status != kvapi.StatusOK {
			return fmt.Errorf("write %d: %s %s", i, resp.Status, resp.Msg)
		}
		acked[k] = v
	}
	fmt.Fprintf(out, "load: %d writes acknowledged (%d redirects), %d distinct keys\n",
		txns, rc.Stats().Redirects, len(acked))

	for i, f := range followers {
		if err := catchUp(f); err != nil {
			return fmt.Errorf("follower %d: %w", i, err)
		}
	}
	fmt.Fprintf(out, "followers converged: lag %v\n", followers[0].ReplLag())

	// Kill the primary and let supervision do the rest: detect the
	// missed heartbeats, wait out the lease, certify and promote the
	// most-advanced follower, grant lease epoch 2, re-point survivors.
	prim.Stop()
	fmt.Fprintln(out, "primary killed; waiting for automatic promotion")
	deadline := time.Now().Add(15 * time.Second)
	for sv.Failovers() == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("supervisor never promoted a successor")
		}
		time.Sleep(5 * time.Millisecond)
	}
	newPrim := sv.Primary()
	fmt.Fprintf(out, "auto-promoted %s (lease epoch %d)\n", newPrim.Name, sv.Epoch())
	if sv.Epoch() != 2 {
		return fmt.Errorf("lease epoch = %d after one failover, want 2", sv.Epoch())
	}

	// The sessioned retry: re-issue the LAST acknowledged write under
	// its settled sequence number. The new primary must answer from the
	// replicated dedup table without executing it again.
	lastK, lastV := uint64((txns-1)%keys), int64(1000+txns-1)
	resp, err := rc.Redo([]kvapi.Op{{Kind: kvapi.OpPut, Key: lastK, Val: lastV}})
	if err != nil || resp.Status != kvapi.StatusOK {
		return fmt.Errorf("session retry: %v %+v", err, resp)
	}
	if !resp.DedupHit {
		return fmt.Errorf("session retry re-executed instead of deduping: %+v", resp)
	}
	fmt.Fprintln(out, "exactly-once: settled retry answered from the replicated dedup table")

	// Zero loss: every acknowledged write survives the failover, and
	// the new primary keeps serving.
	rc.Retarget(newPrim.Addr)
	for k, v := range acked {
		resp, err := rc.Do([]kvapi.Op{{Kind: kvapi.OpGet, Key: k}})
		if err != nil || resp.Status != kvapi.StatusOK {
			return fmt.Errorf("post-failover read %d: %v %s", k, err, resp.Status)
		}
		if resp.Results[0].Val != v {
			return fmt.Errorf("acknowledged write lost: key %d = %d, acked %d",
				k, resp.Results[0].Val, v)
		}
	}
	if resp, err := rc.Do([]kvapi.Op{{Kind: kvapi.OpPut, Key: 0, Val: -1}}); err != nil || resp.Status != kvapi.StatusOK {
		return fmt.Errorf("post-failover write: %v %+v", err, resp)
	}
	fmt.Fprintln(out, "zero loss: every acknowledged write present on the new primary")

	// Certified shutdown, everyone.
	sv.Stop()
	var failed []error
	for i, f := range followers {
		f.Stop()
		if err := f.FinalCheck(); err != nil {
			failed = append(failed, fmt.Errorf("node %d CERTIFICATION FAILED: %w", i, err))
		}
		if err := f.LeakCheck(); err != nil {
			failed = append(failed, fmt.Errorf("node %d LEAK: %w", i, err))
		}
	}
	if err := prim.LeakCheck(); err != nil {
		failed = append(failed, fmt.Errorf("old primary LEAK: %w", err))
	}
	if err := errors.Join(failed...); err != nil {
		return err
	}
	fmt.Fprintln(out, "certified: automatic promotion serializable, survivors converged, no leaks")
	return nil
}

// catchUp syncs a follower until every stream's lag reads zero (the
// upstream is quiescent when this is called).
func catchUp(f *server.Server) error {
	for i := 0; i < 500; i++ {
		if _, err := f.SyncNow(); err != nil {
			return fmt.Errorf("sync: %w", err)
		}
		lagging := false
		for _, lag := range f.ReplLag() {
			lagging = lagging || lag != 0
		}
		if !lagging {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("never caught up: lag %v", f.ReplLag())
}
