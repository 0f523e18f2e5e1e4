package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"pushpull/internal/bench"
)

// The certified seed sweeps. All three share one flag set, one loop
// (bench.Sweep) and one outcome shape; they differ in the targets they
// default to and in what one run does:
//
//	pushpull-check chaos                       # 50-seed sweep, all targets
//	pushpull-check chaos -seeds 100 -rate 0.15 # harder campaign
//	pushpull-check chaos -targets shard,shardseq
//	pushpull-check chaos -seed 7 -targets tl2 -v   # replay ONE failing plan
//	pushpull-check crash -json                 # machine-readable outcomes
//	pushpull-check failover -seeds 50
//	pushpull-check chaos -metrics m.prom -trace timeline.json -http :8080
//
// chaos runs every TM substrate, the hybrid runtime, the cooperative
// model, the sharded engine (coordinator death between prepare and
// commit plus a per-shard WAL crash, then a restart that must leave
// zero transactions in doubt) and the replicated failover target with
// faults enabled, every run certified against the shadow machine, the
// commit-order serializability check and the lock/token leak check.
//
// crash attaches a write-ahead log to every single-log target and
// schedules a deterministic process death at some WAL append; the
// surviving durable image — synced prefix, possibly with a torn or
// bit-flipped tail — is recovered and the committed prefix re-certified
// from scratch.
//
// failover drives a replicated primary under chaos (coordinator death,
// a seed-derived WAL crash, followers pulling through polls that are
// dropped, answered short or cut by seeded full or asymmetric
// partitions) with sessioned clients and acks that wait on the lease
// and on both followers holding the bytes, promotes the most advanced
// replica and demands the failover contract: zero transactions in
// doubt, no gated ack lost, no retry double-applied, at most one acking
// primary per lease epoch. The TCP server does not gate its acks on its
// followers.
//
// -metrics/-trace/-http attach the observability suite: every rule
// transition of the certifying shadow machines streams into the
// metrics aggregator and the span tracker, and the sweep additionally
// fails if any span leaked (every BEGIN needs its CMT/ABORT pop).
//
// Exit status is non-zero if any run had a violation; the report
// prints the failing plan so the run can be replayed exactly.

// sweeps is what distinguishes the three: default targets, what one
// run does, and the closing line of a clean sweep.
var sweeps = map[string]struct {
	targets []string
	run     func(target string, seed int64, p bench.ChaosParams) bench.Outcome
	passed  string
}{
	"chaos": {bench.ChaosTargets(), bench.RunChaosOne,
		"all runs recovered: zero serializability/invariant/leak violations"},
	// The sharded engine and the failover target are chaos-only: their
	// durable image is multi-log.
	"crash": {bench.CrashTargets(), bench.RunCrashOne,
		"all runs recovered: every durable prefix certified, uncommitted pushes discarded"},
	"failover": {[]string{"failover"}, bench.RunChaosOne,
		"all promotions certified: zero acknowledged transactions lost, zero in doubt"},
}

func sweepCmd(kind string) func(args []string, stdout, stderr io.Writer) error {
	return func(args []string, stdout, stderr io.Writer) error {
		sw := sweeps[kind]
		fs := flag.NewFlagSet(kind, flag.ContinueOnError)
		var p bench.ChaosParams
		fs.IntVar(&p.Seeds, "seeds", 50, "plan seeds per target")
		fs.Int64Var(&p.BaseSeed, "seed", 1, "first plan seed (explicit -seed without -seeds replays just that plan)")
		fs.IntVar(&p.Threads, "threads", 4, "worker threads / drivers per run")
		fs.IntVar(&p.OpsEach, "ops", 40, "transactions per worker")
		fs.IntVar(&p.Keys, "keys", 16, "key range (fewer = hotter)")
		fs.Float64Var(&p.Rate, "rate", 0.08, "reference per-site fault probability (crash plans run at half)")
		targets := fs.String("targets", "", "comma-separated targets (default: "+strings.Join(sw.targets, ",")+")")
		verbose := fs.Bool("v", false, "print every run's plan, fault tally and outcome")
		jsonOut := fs.Bool("json", false, "emit the outcomes as JSON instead of the text table")
		var out bench.ObsOutputs
		out.Flags(fs)
		if err := parse(fs, args, stderr); err != nil {
			return err
		}

		// An explicit -seed with no explicit -seeds means "replay this
		// one failing plan", not "run 50 plans starting there".
		seedSet, seedsSet := false, false
		fs.Visit(func(f *flag.Flag) {
			seedSet = seedSet || f.Name == "seed"
			seedsSet = seedsSet || f.Name == "seeds"
		})
		if seedSet && !seedsSet {
			p.Seeds = 1
		}
		p.Targets = sw.targets
		if *targets != "" {
			p.Targets = nil
			for _, t := range strings.Split(*targets, ",") {
				p.Targets = append(p.Targets, strings.TrimSpace(t))
			}
		}
		p = p.WithDefaults() // the header shows the effective sweep, not raw flags
		p.Obs = out.Start(stderr)

		if !*jsonOut {
			fmt.Fprintf(stdout, "== %s sweep: %d seeds x %v, rate %g ==\n", kind, p.Seeds, p.Targets, p.Rate)
		}
		report, outcomes, err := bench.Sweep(p, sw.run)
		if *jsonOut {
			b, jerr := json.MarshalIndent(outcomes, "", "  ")
			if jerr != nil {
				return jerr
			}
			fmt.Fprintln(stdout, string(b))
		} else {
			if *verbose {
				for _, o := range outcomes {
					fmt.Fprintln(stdout, o)
				}
				fmt.Fprintln(stdout)
			}
			fmt.Fprintln(stdout, report)
		}
		if oerr := out.Finish(stderr); err == nil {
			err = oerr
		}
		if err == nil && !*jsonOut {
			fmt.Fprintln(stdout, sw.passed)
		}
		return err
	}
}
