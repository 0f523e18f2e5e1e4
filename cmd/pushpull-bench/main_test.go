package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func runBench(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestNoHalfDocument: a -json run that cannot finish prints nothing on
// stdout (it used to leave a dangling "{" beside the error).
func TestNoHalfDocument(t *testing.T) {
	for _, args := range [][]string{
		{"-json", "-table", "htm"}, {"-table", "bogus"}, {"-keys", "2,x"}, {"-no-such-flag"},
	} {
		code, stdout, stderr := runBench(args...)
		if code == 0 || stdout != "" || stderr == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want non-zero, empty, a message", args, code, stdout, stderr)
		}
	}
}

// TestJSONDocument: one valid document, a section per table run, rows
// in the shared schema with abort_ratio a fraction of attempts.
func TestJSONDocument(t *testing.T) {
	code, stdout, stderr := runBench("-json", "-table", "all", "-threads", "2", "-txns", "2", "-ops", "20", "-keys", "2")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	var doc map[string][]map[string]any
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, stdout)
	}
	if len(doc["model"]) != 5 || len(doc["substrate"]) != 5 {
		t.Fatalf("sections: model %d substrate %d rows", len(doc["model"]), len(doc["substrate"]))
	}
	for _, key := range []string{"strategy", "threads", "txns_each", "keys", "read_pct", "seed", "commits",
		"aborts", "gave_up", "cascades", "abort_ratio", "serializable", "opaque", "duration_ms", "perf"} {
		if _, ok := doc["model"][0][key]; !ok {
			t.Errorf("model row lacks %q: %v", key, doc["model"][0])
		}
	}
	for _, key := range []string{"substrate", "threads", "ops_each", "keys", "read_pct", "seed", "commits",
		"aborts", "abort_ratio", "duration_ms", "perf"} {
		if _, ok := doc["substrate"][0][key]; !ok {
			t.Errorf("substrate row lacks %q: %v", key, doc["substrate"][0])
		}
	}
	for _, rows := range doc {
		for _, r := range rows {
			if ar := r["abort_ratio"].(float64); ar < 0 || ar >= 1 {
				t.Errorf("abort_ratio %v outside [0,1): %v", ar, r)
			}
		}
	}
}

func TestTextTables(t *testing.T) {
	code, stdout, _ := runBench("-table", "htm")
	if code != 0 || !strings.Contains(stdout, "fallback-rate") {
		t.Errorf("exit %d\n%s", code, stdout)
	}
}
