// Command pushpull-load is the closed-loop load generator for
// pushpull-server: N client connections issue transactions back to
// back (one-shot by default, interactive sessions with -interactive)
// against a key range with configurable skew and read/write mix, then
// report throughput and client-perceived latency quantiles.
//
//	pushpull-load -addr 127.0.0.1:7070 -clients 8 -duration 30s
//	pushpull-load -addr 127.0.0.1:7070 -clients 8 -skew 1.2 -json
//
// -json emits the summary in the row schema pushpull-bench -json uses
// (abort_ratio = aborts/(aborts+commits), perf.txn_per_sec, ...), so
// downstream tooling reads both alike.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pushpull/internal/bench"
	"pushpull/internal/kvapi"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "server address")
	clients := flag.Int("clients", 8, "concurrent client connections")
	duration := flag.Duration("duration", 5*time.Second, "campaign length")
	maxTxns := flag.Int("max-txns", 0, "cap transactions per client (0 = duration-bound)")
	keys := flag.Int("keys", 64, "key range")
	readPct := flag.Int("readpct", 50, "percentage of get operations")
	opsPerTxn := flag.Int("ops", 3, "operations per transaction")
	opMix := flag.String("op-mix", "", `typed operation mix, e.g. "incr:70,cget:20,cas:10" (overrides -readpct op drawing)`)
	skew := flag.Float64("skew", 0, "Zipf exponent for key choice (<=1 uniform)")
	interactive := flag.Bool("interactive", false, "begin/op/commit sessions instead of one-shot transactions")
	readonlyPct := flag.Int("readonly-pct", 0, "percentage of transactions issued as declared read-only snapshot transactions")
	seed := flag.Int64("seed", 1, "workload seed")
	shards := flag.Int("shards", 0, "server shard count (shapes key choice; 0 = unshaped)")
	cross := flag.Int("cross", 10, "percentage of cross-shard transactions (with -shards > 1)")
	jsonOut := flag.Bool("json", false, "emit the JSON summary instead of text")
	flag.Parse()

	mix, err := kvapi.ParseOpMix(*opMix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pushpull-load:", err)
		os.Exit(2)
	}

	res, err := kvapi.RunLoad(kvapi.LoadParams{
		Addr: *addr, Clients: *clients, Duration: *duration,
		MaxTxns: *maxTxns, Keys: *keys, ReadPct: *readPct,
		OpsPerTxn: *opsPerTxn, OpMix: mix, Skew: *skew,
		Interactive: *interactive, ReadOnlyPct: *readonlyPct, Seed: *seed,
		Shards: *shards, CrossPct: *cross,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pushpull-load:", err)
		os.Exit(1)
	}

	if !*jsonOut {
		fmt.Println(res.String())
		return
	}
	out, err := bench.LoadSummaryJSON(res, *opMix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pushpull-load:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if res.Errors > 0 {
		os.Exit(1)
	}
}
