package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// check runs the command in-process and returns its exit status and
// both streams.
func check(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// small keeps a sweep to a fraction of a second per run.
var small = []string{"-threads", "2", "-ops", "8", "-keys", "8"}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"-mode", "random"}} {
		code, stdout, stderr := check(args...)
		if code != 2 || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q; want 2 and empty", args, code, stdout)
		}
		// The help lists every subcommand (it once omitted replay).
		for _, c := range commands {
			if !strings.Contains(stderr, "\n  "+c.name+" ") {
				t.Errorf("%v: usage does not list %q:\n%s", args, c.name, stderr)
			}
		}
	}
	for _, args := range [][]string{
		{"chaos", "-no-such-flag"}, {"chaos", "stray"}, {"replay"},
		{"trace"}, {"substrate", "-substrate", "nope"}, {"cluster", "-replicas", "0"},
	} {
		if code, stdout, _ := check(args...); code != 2 || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q; want 2 and empty", args, code, stdout)
		}
	}
	if code, _, stderr := check("chaos", "-h"); code != 0 || !strings.Contains(stderr, "-targets") {
		t.Errorf("chaos -h: exit %d, stderr:\n%s", code, stderr)
	}
}

// sweepJSON runs a sweep with -json and decodes stdout, which must be
// one valid document.
func sweepJSON(t *testing.T, args ...string) []map[string]any {
	t.Helper()
	code, stdout, stderr := check(append(args, "-json")...)
	if code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, stderr)
	}
	var rows []map[string]any
	if err := json.Unmarshal([]byte(stdout), &rows); err != nil {
		t.Fatalf("%v: stdout is not JSON: %v\n%s", args, err, stdout)
	}
	return rows
}

// TestSeedReplaysOnePlan: -seed without -seeds replays that one plan on
// every sweep (the instrumented sweep used to run 50 from there).
func TestSeedReplaysOnePlan(t *testing.T) {
	for _, sub := range []string{"chaos", "crash"} {
		rows := sweepJSON(t, append([]string{sub, "-targets", "tl2", "-seed", "7"}, small...)...)
		if len(rows) != 1 || rows[0]["seed"] != 7.0 || rows[0]["target"] != "tl2" {
			t.Errorf("%s -seed 7: %v", sub, rows)
		}
	}
	rows := sweepJSON(t, append([]string{"chaos", "-targets", "tl2", "-seed", "7", "-seeds", "2"}, small...)...)
	if len(rows) != 2 || rows[0]["seed"] != 7.0 || rows[1]["seed"] != 8.0 {
		t.Errorf("-seed 7 -seeds 2: %v", rows)
	}
}

// TestSweepJSONKeys pins the -json keys downstream tooling reads, per
// sweep.
func TestSweepJSONKeys(t *testing.T) {
	head := []string{"target", "seed", "plan", "faults_injected", "commits", "aborts", "gave_up"}
	for sub, keys := range map[string][]string{
		"chaos": head,
		"crash": append([]string{"policy", "crashed", "recovered", "discarded", "truncated", "durable_bytes"}, head...),
		"failover": append([]string{"crash_fired", "acked_keys", "partitions", "ack_withheld",
			"zombie_refused", "retried", "dedup_hits", "lease_epoch", "promoted_txns", "in_doubt",
			"history_txns"}, head...),
	} {
		args := []string{sub, "-seeds", "1"}
		if sub != "failover" {
			args = append(args, "-targets", "tl2")
		}
		rows := sweepJSON(t, append(args, small...)...)
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows", sub, len(rows))
		}
		for _, k := range keys {
			if _, ok := rows[0][k]; !ok {
				t.Errorf("%s: key %q missing from %v", sub, k, rows[0])
			}
		}
		if _, ok := rows[0]["err"]; ok {
			t.Errorf("%s: clean run carries err: %v", sub, rows[0])
		}
	}
	row := sweepJSON(t, append([]string{"crash", "-targets", "tl2", "-seeds", "1"}, small...)...)[0]
	if row["policy"] == "" || row["durable_bytes"].(float64) <= 0 {
		t.Errorf("crash row: policy %q durable_bytes %v", row["policy"], row["durable_bytes"])
	}
}

// TestSweepFailureIsReported: a failing run exits 1, still prints valid
// JSON carrying the verdict, and names the replay recipe on stderr.
func TestSweepFailureIsReported(t *testing.T) {
	code, stdout, stderr := check("chaos", "-targets", "nope", "-seeds", "1", "-json")
	var rows []map[string]any
	if err := json.Unmarshal([]byte(stdout), &rows); err != nil || len(rows) != 1 {
		t.Fatalf("stdout: %v\n%s", err, stdout)
	}
	if code != 1 || rows[0]["err"] == nil || !strings.Contains(stderr, "replay: plan{seed=1") {
		t.Errorf("exit %d, row %v, stderr %q", code, rows[0], stderr)
	}
}

// TestSweepObsOutputs: the observability flags ride on the sweeps — a
// non-empty Prometheus dump, a JSON timeline, and the leak verdict.
func TestSweepObsOutputs(t *testing.T) {
	dir := t.TempDir()
	prom, timeline := filepath.Join(dir, "m.prom"), filepath.Join(dir, "t.json")
	args := append([]string{"chaos", "-targets", "tl2", "-seeds", "2", "-metrics", prom, "-trace", timeline}, small...)
	code, stdout, stderr := check(args...)
	if code != 0 || !strings.Contains(stdout, "zero serializability") {
		t.Fatalf("exit %d\n%s\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "completed, 0 leaked") {
		t.Errorf("no leak verdict on stderr:\n%s", stderr)
	}
	dump, err := os.ReadFile(prom)
	if err != nil || !strings.Contains(string(dump), `pushpull_commits_total{site="tl2"}`) {
		t.Errorf("metrics dump: %v\n%s", err, dump)
	}
	tl, err := os.ReadFile(timeline)
	if err != nil || !json.Valid(tl) {
		t.Errorf("timeline: %v, valid JSON %v", err, json.Valid(tl))
	}
}

// TestChecks drives the single-process subcommands end to end,
// including a recorded history replayed offline.
func TestChecks(t *testing.T) {
	hist := filepath.Join(t.TempDir(), "run.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"random", "-seeds", "3"}, "all 3 runs certified serializable"},
		{[]string{"exhaustive"}, "all serializable"},
		{[]string{"substrate", "-substrate", "boost", "-txns", "20", "-record", hist}, "0 violations"},
		{[]string{"replay", "-history", hist}, "all certified serializable"},
		{[]string{"trace", "-demo", "fig2"}, "--- rule decomposition ---"},
		{[]string{"trace", "-demo", "fig7"}, "opaque:"},
	} {
		code, stdout, stderr := check(tc.args...)
		if code != 0 || !strings.Contains(stdout, tc.want) {
			t.Errorf("%v: exit %d, want %q in:\n%s\n%s", tc.args, code, tc.want, stdout, stderr)
		}
	}
	if code, _, stderr := check("replay", "-history", filepath.Join(t.TempDir(), "absent.json")); code != 1 || stderr == "" {
		t.Errorf("replay of a missing file: exit %d, stderr %q", code, stderr)
	}
}
