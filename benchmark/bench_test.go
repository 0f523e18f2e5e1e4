package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"pushpull/internal/kvapi"
	"pushpull/internal/shard"
)

// lastLine parses the result line a driver-form run prints last.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var l resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return l
}

func checkLine(t *testing.T, l resultLine, defs []metricDef, nonZero bool) {
	t.Helper()
	if !l.Correct || l.Attempted < 1 || l.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", l.Correct, l.Attempted, l.Failed)
	}
	if len(l.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d defined", len(l.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := l.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is %v", d.Name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("end-to-end metric %s is %v; it must never be zero", d.Name, m.Value)
		}
	}
}

// TestSmokeDriverForm runs every workload the way the driver does, at
// smoke size: same code path and same correctness checks as a full run.
func TestSmokeDriverForm(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", []string{"0", "1"}[trace],
				"-smoke", "-dir", t.TempDir()}
			if code := realMain(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%d: exit %d: %s", w.Name, trace, code, errOut.String())
			}
			checkLine(t, lastLine(t, out.String()), defs, trace == 0)
		}
	}
}

// TestSmokeAllForm runs the reader's form: four measured windows, then
// the traced pass, two sets, the summary and the baseline file.
func TestSmokeAllForm(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	args := []string{"-smoke", "-repeat", "2", "-dir", dir, "-out", dir + "/baseline.json"}
	if code := realMain(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	b, err := os.ReadFile(dir + "/baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(b, &base); err != nil {
		t.Fatal(err)
	}
	all := append(append([]metricDef(nil), endToEnd...), perLayer...)
	for _, w := range workloads {
		l, ok := base.Results[w.Name]
		if !ok {
			t.Fatalf("baseline lacks %s", w.Name)
		}
		checkLine(t, l, all, false)
		spans, err := os.ReadFile(dir + "/trace-" + w.Name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var ss []span
		if err := json.Unmarshal(spans, &ss); err != nil || len(ss) == 0 {
			t.Fatalf("%s: span file: %v (%d spans)", w.Name, err, len(ss))
		}
		for i, s := range ss {
			if s.EndNs < s.StartNs || s.Parent >= i || (s.Parent >= 0 && ss[s.Parent].Name != s.Name) {
				t.Fatalf("%s: span %d is malformed: %+v", w.Name, i, s)
			}
		}
	}
}

// TestCorruptModelFails plants a wrong expected value: the durability
// read-back must catch it, exit non-zero and print no result.
func TestCorruptModelFails(t *testing.T) {
	for _, name := range []string{"rw-single", "hot-typed"} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", name, "-smoke", "-corrupt-model", "-dir", t.TempDir()}
		if code := realMain(args, &out, &errOut); code == 0 {
			t.Fatalf("%s: a corrupted model passed:\n%s", name, out.String())
		}
		if !strings.Contains(errOut.String(), "durability") {
			t.Errorf("%s: failure does not name the durability check: %s", name, errOut.String())
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%s: a failed run printed a result line", name)
		}
	}
}

// stream encodes the first n requests client i would send under seed.
func stream(w workload, seed int64, i, n int) []byte {
	g := newGenerator(w, clientSeed(seed, i))
	var b []byte
	for j := 0; j < n; j++ {
		t := g.next()
		b = kvapi.AppendRequest(b, kvapi.Request{Type: kvapi.MsgTxn, Ops: t.Ops, ReadOnly: t.ReadOnly})
	}
	return b
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloads {
		for i := 0; i < numClients; i++ {
			a, b := stream(w, 3, i, 2000), stream(w, 3, i, 2000)
			if !bytes.Equal(a, b) {
				t.Errorf("%s client %d: same seed, different request stream", w.Name, i)
			}
			if bytes.Equal(a, stream(w, 4, i, 2000)) {
				t.Errorf("%s client %d: seeds 3 and 4 give the same stream", w.Name, i)
			}
		}
		if bytes.Equal(stream(w, 3, 0, 2000), stream(w, 3, 1, 2000)) {
			t.Errorf("%s: clients 0 and 1 send the same stream", w.Name)
		}
	}
}

// TestMixRatios checks each workload's stated mix against what the
// generator draws, with the footprint judged by the server's own
// key-to-shard function.
func TestMixRatios(t *testing.T) {
	const n = 40000
	for _, w := range workloads {
		g := newGenerator(w, clientSeed(1, 0))
		var ro, rw, cross int
		for i := 0; i < n; i++ {
			tx := g.next()
			if len(tx.Ops) != opsPerTxn {
				t.Fatalf("%s: %d ops in a transaction", w.Name, len(tx.Ops))
			}
			if tx.ReadOnly {
				ro++
				continue
			}
			rw++
			homes := map[int]bool{}
			for _, op := range tx.Ops {
				if op.Key >= uint64(w.KeySpace) {
					t.Fatalf("%s: key %d outside [0,%d)", w.Name, op.Key, w.KeySpace)
				}
				homes[shard.ShardOf(op.Key, w.Shards)] = true
			}
			if (len(homes) > 1) != tx.Cross {
				t.Fatalf("%s: footprint spans %d shard(s) but Cross=%v", w.Name, len(homes), tx.Cross)
			}
			if tx.Cross {
				cross++
			}
		}
		if got := 100 * float64(ro) / n; math.Abs(got-float64(w.ROPct)) > 1 {
			t.Errorf("%s: %.1f%% read-only, want %d%%", w.Name, got, w.ROPct)
		}
		if got := 100 * float64(cross) / float64(rw); math.Abs(got-float64(w.CrossPct)) > 2 {
			t.Errorf("%s: %.1f%% of writers cross shards, want %d%%", w.Name, got, w.CrossPct)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got, n := percentile(xs, c.p); got != c.want || n != 100 {
			t.Errorf("p%v = %v over %d samples, want %v over 100", c.p, got, n, c.want)
		}
	}
	if got, n := percentile([]float64{7}, 95); got != 7 || n != 1 {
		t.Errorf("p95 of one sample = %v over %d", got, n)
	}
	if got, n := percentile(nil, 95); got != 0 || n != 0 {
		t.Errorf("p95 of nothing = %v over %d", got, n)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestQuartiles pins quartiles to statistics.quantiles(xs, n=4) of
// Python 3, which is what the driver judges spread with.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 4, 8, 16}, 1.5, 12},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{9, 10, 11, 10}); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("spread = %v, want 0.15", got)
	}
	if got := spread([]float64{9, 11}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread of two values = %v, want their distance over their mean, 0.2", got)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json at the root equal to the tables
// this package measures by.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the default window is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: %+v, want %s / %s", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound %v, want %v in (0, 0.25]", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, d.Name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}

// TestAPISurface holds api_surface.json's package-level lists equal to
// the symbols of internal/ packages the benchmark's Go files select.
func TestAPISurface(t *testing.T) {
	b, err := os.ReadFile("api_surface.json")
	if err != nil {
		t.Fatal(err)
	}
	var surface struct {
		Packages map[string][]string `json:"packages"`
	}
	if err := json.Unmarshal(b, &surface); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			names := map[string]string{} // local import name -> path
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if !strings.HasPrefix(path, "pushpull/internal/") {
					continue
				}
				name := path[strings.LastIndex(path, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				names[name] = path
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil {
					if path, ok := names[id.Name]; ok {
						if used[path] == nil {
							used[path] = map[string]bool{}
						}
						used[path][sel.Sel.Name] = true
					}
				}
				return true
			})
		}
	}
	for path, syms := range used {
		var got []string
		for s := range syms {
			got = append(got, s)
		}
		sort.Strings(got)
		want := append([]string(nil), surface.Packages[path]...)
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s:\n  files use   %v\n  json lists  %v", path, got, want)
		}
	}
	for path := range surface.Packages {
		if used[path] == nil {
			t.Errorf("%s is listed but no file imports it", path)
		}
	}
}
