package bench

import (
	"encoding/json"
	"fmt"
	"strings"

	"pushpull/internal/chaos"
)

// This file is the one sweep loop and the one outcome shape behind
// `pushpull-check chaos|crash|failover`: targets x plan seeds, every
// run certified, a per-target aggregate row, and the first failing
// plan of each target printed as its reproduction recipe.

// Outcome is one certified sweep run. The tagged fields are the -json
// schema: the head is common to every run, a crash run adds the
// CrashDetail keys and a failover run the FailoverDetail keys.
type Outcome struct {
	Target string `json:"target"`
	Seed   int64  `json:"seed"`
	// Plan is the reproduction recipe: rerunning the target with the
	// same plan replays the same injection decisions.
	Plan   string      `json:"plan"`
	Faults chaos.Stats `json:"-"` // encoded as faults_injected
	// Commits/Aborts from the target's own counters; GaveUp counts
	// controlled retry-budget exhaustions (not failures).
	Commits uint64 `json:"commits"`
	Aborts  uint64 `json:"aborts"`
	GaveUp  uint64 `json:"gave_up"`
	// Degraded (hybrid): commits that ran HTM sections under the
	// fallback lock after graceful degradation.
	Degraded uint64 `json:"degraded,omitempty"`
	// Kills/Stalls (model): scheduler-level injections.
	Kills  int `json:"kills,omitempty"`
	Stalls int `json:"stalls,omitempty"`
	// Halted (model): the scheduler detected livelock or deadlock and
	// halted the run — a controlled outcome, certified like any other.
	Halted bool `json:"halted,omitempty"`
	// Err is the run's verdict: a certification, invariant,
	// serializability, leak, recovery or failover-contract violation —
	// nil means the run recovered from every fault cleanly.
	Err error `json:"-"` // encoded as err

	*CrashDetail
	*FailoverDetail
}

// MarshalJSON flattens the two fields tags cannot express: the fault
// tally to its total and the verdict to its message (an error is a
// verdict here, not a resumable value).
func (o Outcome) MarshalJSON() ([]byte, error) {
	type tagged Outcome
	flat := struct {
		tagged
		Faults uint64 `json:"faults_injected"`
		Err    string `json:"err,omitempty"`
	}{tagged: tagged(o), Faults: o.Faults.TotalInjected(), Err: errText(o.Err)}
	return json.Marshal(flat)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// count is one named kind-specific tally of a run (or, summed, of a
// target's runs).
type count struct {
	name string
	n    uint64
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// counts lists the run's kind-specific tallies, in a fixed order per
// kind so a target's runs sum position by position.
func (o Outcome) counts() []count {
	cs := []count{
		{"degraded", o.Degraded}, {"kills", uint64(o.Kills)},
		{"stalls", uint64(o.Stalls)}, {"halted", b2u(o.Halted)},
	}
	if c := o.CrashDetail; c != nil {
		cs = append(cs, count{"crashed", b2u(c.Crashed)},
			count{"recovered", uint64(c.Recovered)}, count{"discarded", uint64(c.Discarded)},
			count{"truncated", b2u(c.Truncated)},
			count{"clean_discards", b2u(c.Mode == chaos.CrashClean.String() && c.Discarded > 0)})
	}
	if f := o.FailoverDetail; f != nil {
		cs = append(cs, count{"crashes", b2u(f.CrashFired)},
			count{"partitions", uint64(f.Partitions)}, count{"acked_keys", uint64(f.Acked)},
			count{"retried", uint64(f.Retried)}, count{"dedup_hits", uint64(f.DedupHits)},
			count{"zombie_refused", f.ZombieRefused}, count{"promoted", uint64(f.PromotedTxns)})
	}
	return cs
}

// notes renders the non-zero tallies.
func notes(cs []count) string {
	var parts []string
	for _, c := range cs {
		if c.n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c.name, c.n))
		}
	}
	return strings.Join(parts, " ")
}

// String is the one-line form of a run (the sweeps' -v listing).
func (o Outcome) String() string {
	status := "ok"
	if o.Err != nil {
		status = fmt.Sprintf("FAIL: %v", o.Err)
	}
	return fmt.Sprintf("%-8s %s  faults=%s  commits=%d aborts=%d gaveup=%d %s  %s",
		o.Target, o.Plan, o.Faults, o.Commits, o.Aborts, o.GaveUp, notes(o.counts()), status)
}

// Sweep runs p.Seeds plan seeds over every target through run
// (RunChaosOne or RunCrashOne), certifying each, and renders the
// per-target report. The returned error is non-nil if ANY run had a
// violation; the report always includes each target's first failing
// plan (the reproduction recipe).
func Sweep(p ChaosParams, run func(target string, seed int64, p ChaosParams) Outcome) (string, []Outcome, error) {
	p = p.WithDefaults()
	var (
		outcomes []Outcome
		rows     []Row
		fails    string
		firstErr error
	)
	for _, target := range p.Targets {
		var injected, commits, aborts, gaveUp uint64
		var sums []count
		failed, firstFail := 0, ""
		for s := 0; s < p.Seeds; s++ {
			o := run(target, p.BaseSeed+int64(s), p)
			outcomes = append(outcomes, o)
			injected += o.Faults.TotalInjected()
			commits += o.Commits
			aborts += o.Aborts
			gaveUp += o.GaveUp
			cs := o.counts()
			if sums == nil {
				sums = cs
			} else {
				for i := range cs {
					sums[i].n += cs[i].n
				}
			}
			if o.Err == nil {
				continue
			}
			failed++
			if firstFail == "" {
				firstFail = fmt.Sprintf("\nFAIL %s %s: %v\n", target, o.Plan, o.Err)
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("%s seed %d: %w (replay: %s)", target, o.Seed, o.Err, o.Plan)
			}
		}
		fails += firstFail
		rows = append(rows, Row{
			target, fmt.Sprint(p.Seeds), fmt.Sprint(injected),
			fmt.Sprint(commits), fmt.Sprint(aborts),
			fmt.Sprintf("%.3f", abortsPerCommit(aborts, commits)),
			fmt.Sprint(gaveUp), fmt.Sprint(failed), notes(sums),
		})
	}
	report := Table(Row{"target", "seeds", "faults", "commits", "aborts", "aborts/commit", "gaveup", "violations", "notes"}, rows)
	return report + fails, outcomes, firstErr
}
