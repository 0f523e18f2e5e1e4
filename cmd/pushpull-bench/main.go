// Command pushpull-bench regenerates the experiment tables of
// EXPERIMENTS.md:
//
//	pushpull-bench -table model      # E4/E5/E7 model-strategy sweep
//	pushpull-bench -table substrate  # E10 substrate contention sweep
//	pushpull-bench -table htm        # E10 HTM capacity/fallback sweep
//	pushpull-bench -table all        # everything
//
// Knobs: -threads, -txns/-ops, -keys (comma list of key ranges),
// -readpct, -seed, -yield. With -json the model and substrate sweeps
// are emitted as one JSON document (the row schema shared with
// pushpull-load -json); the htm table is text-only (it reports no
// per-run result rows). -metrics/-trace/-http attach the observability
// suite to the substrate sweep: every run is then certified on a
// shadow machine whose rule stream feeds the metrics dump and the
// span timeline.
//
// (The repo's performance benchmark is benchmark/, run by
// `bash benchmark/run.sh`; these tables are the paper's qualitative
// shapes.)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pushpull/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status (2 for usage
// errors).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pushpull-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "all", "model | substrate | htm | all")
	threads := fs.Int("threads", 4, "worker threads")
	txns := fs.Int("txns", 6, "transactions per thread (model sweep)")
	ops := fs.Int("ops", 300, "transactions per goroutine (substrate sweep)")
	keysFlag := fs.String("keys", "2,8,64", "comma-separated key ranges (contention levels)")
	readPct := fs.Int("readpct", 20, "percentage of read-only transactions")
	seed := fs.Int64("seed", 1, "workload/scheduler seed")
	yield := fs.Int("yield", 2, "yields inside substrate transactions (conflict window)")
	jsonOut := fs.Bool("json", false, "emit JSON instead of text tables (model and substrate sweeps)")
	var out bench.ObsOutputs
	out.Flags(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	keys, err := parseKeys(*keysFlag)
	if err != nil {
		fmt.Fprintln(stderr, "pushpull-bench:", err)
		return 2
	}
	want := func(t string) bool { return *table == t || *table == "all" }
	switch {
	case !want("model") && !want("substrate") && !want("htm"):
		fmt.Fprintf(stderr, "pushpull-bench: unknown -table %q (model | substrate | htm | all)\n", *table)
		return 2
	case *jsonOut && *table == "htm":
		fmt.Fprintln(stderr, "pushpull-bench: the htm table has no JSON form (no per-run result rows); use text mode")
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "pushpull-bench:", err)
		return 1
	}
	// Text tables print as each sweep finishes; the JSON document is
	// built whole and printed once, so a sweep that fails midway leaves
	// stdout empty rather than holding half a document.
	doc := map[string]any{}
	section := func(title, table string) {
		if !*jsonOut {
			fmt.Fprintf(stdout, "== %s ==\n%s\n", title, table)
		}
	}
	if want("model") {
		table, results, err := bench.SweepModel(bench.ModelParams{
			Threads: *threads, TxnsEach: *txns, ReadPct: *readPct, Seed: *seed,
		}, keys)
		if err != nil {
			return fail(err)
		}
		doc["model"] = results
		section("model-level strategy sweep (E4/E5/E7): abort shapes under contention", table)
	}
	if want("substrate") {
		table, results, err := bench.SweepSubstrates(bench.SubstrateParams{
			Threads: *threads, OpsEach: *ops, ReadPct: *readPct, Seed: *seed,
			Yield: *yield, Obs: out.Start(stderr),
		}, keys)
		if err == nil {
			err = out.Finish(stderr)
		}
		if err != nil {
			return fail(err)
		}
		doc["substrate"] = results
		section("substrate contention sweep (E10): who wins where", table)
	}
	if want("htm") && !*jsonOut {
		table, err := bench.HTMCapacitySweep(8, []int{2, 4, 8, 12, 16, 32}, 200, *seed)
		if err != nil {
			return fail(err)
		}
		section("HTM capacity sweep (E10): speculative budget vs fallback rate", table)
	}
	if *jsonOut {
		body, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(body))
	}
	return 0
}

func parseKeys(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad key range %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
