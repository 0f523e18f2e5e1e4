// Command pushpull-check certifies executions against the Push/Pull
// model — one binary, one subcommand per way of producing an execution:
//
//	pushpull-check random -strategy optimistic -threads 4 -txns 5 -seeds 50
//	    stress-runs a random workload under the strategy across seeds,
//	    certifying serializability (Theorem 5.17) of every run;
//
//	pushpull-check exhaustive
//	    model-checks EVERY interleaving of a small two-transaction
//	    program, certifying all terminal states;
//
//	pushpull-check substrate -substrate tl2 -threads 4 -txns 200
//	    runs the real goroutine-concurrent substrate with the shadow
//	    machine attached and reports the certification verdict;
//	    -record out.json additionally journals the certified commits
//	    to a history file;
//
//	pushpull-check replay -history out.json
//	    re-certifies a recorded history offline on a fresh shadow
//	    machine (tampered histories fail);
//
//	pushpull-check trace -demo fig2
//	    runs transactions on the machine and prints their rule
//	    decomposition (see trace.go);
//
//	pushpull-check chaos | crash | failover
//	    the certified seed sweeps: fault injection over every target,
//	    crash-recovery over every single-log target, replicated
//	    failover (see sweep.go);
//
//	pushpull-check cluster -replicas 2
//	    a live loopback primary + followers under a supervisor, with an
//	    automatic certified promotion (see cluster.go).
//
// Exit status: 0 certified, 1 a violation or runtime failure, 2 usage.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// command is one subcommand: it parses args with its own flag set,
// prints results to stdout and diagnostics to stderr.
type command struct {
	name    string
	summary string
	run     func(args []string, stdout, stderr io.Writer) error
}

var commands = []command{
	{"random", "stress a model strategy across scheduler seeds", checkRandom},
	{"exhaustive", "model-check every interleaving of a small program", checkExhaustive},
	{"substrate", "run a real substrate under the shadow machine", checkSubstrate},
	{"replay", "re-certify a recorded history offline", checkReplay},
	{"trace", "print a run's Push/Pull rule decomposition", traceCmd},
	{"chaos", "fault-injection sweep: 50 plan seeds x every target", sweepCmd("chaos")},
	{"crash", "crash-recovery sweep: 50 crash plans x every single-log target", sweepCmd("crash")},
	{"failover", "replicated failover sweep: 50 seeds of crashes + partitions", sweepCmd("failover")},
	{"cluster", "live loopback cluster with an automatic certified promotion", clusterCmd},
}

// errUsage marks a command-line error the flag package (or the
// subcommand) has already reported on stderr.
var errUsage = errors.New("usage")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name != args[0] {
				continue
			}
			err := c.run(args[1:], stdout, stderr)
			switch {
			case err == nil, errors.Is(err, flag.ErrHelp):
				return 0
			case errors.Is(err, errUsage):
				return 2
			}
			fmt.Fprintln(stderr, "pushpull-check:", err)
			return 1
		}
		fmt.Fprintf(stderr, "pushpull-check: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: pushpull-check <subcommand> [flags]   (-h after a subcommand lists its flags)")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-11s %s\n", c.name, c.summary)
	}
	return 2
}

// parse runs a subcommand's flag set over its args; a parse failure has
// been reported by the flag package and becomes exit status 2.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pushpull-check %s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		return errUsage
	}
	return nil
}
