// Command benchmark is the repository's one benchmark: it boots the real
// server in-process on loopback TCP, drives it with its own seeded
// closed-loop generator, checks the outputs, and prints every metric by
// name with its unit. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	smoke    bool
	repeat   int
	check    bool
	dir      string
	traceOut string
	out      string
	commit   string
	corrupt  bool
	stdout   io.Writer
}

func realMain(args []string, stdout, stderr io.Writer) int {
	o := options{stdout: stdout}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload and print one result line (the driver's form); empty runs all four, measured then traced")
	fs.Int64Var(&o.seed, "seed", 1, "run seed: client i draws from stream seed*1000+i")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "length of the measured window")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics, window counters plus the traced probe pass")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes, same code path and same checks (seconds)")
	fs.IntVar(&o.repeat, "repeat", 1, "with no -workload: run the whole set this many times, seeds seed..seed+N-1")
	fs.BoolVar(&o.check, "check", false, "with -repeat: exit non-zero when an end-to-end metric's spread across sets exceeds its bound")
	fs.StringVar(&o.dir, "dir", ".bench_build", "directory for WAL files and the span file; everything the benchmark writes stays under it")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of the traced pass (default <dir>/trace-<workload>.json)")
	fs.StringVar(&o.out, "out", "", "with no -workload: also write the medians across sets, with the environment, to this file")
	fs.StringVar(&o.commit, "commit", "unknown", "commit id to stamp into -out (the checkout the driver runs in is not a git repository)")
	fs.BoolVar(&o.corrupt, "corrupt-model", false, "plant a wrong expected value in the model: the durability check must fail")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.seconds < 1 || o.repeat < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds and -repeat must be at least 1, -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	var runErr error
	if o.workload != "" {
		runErr = runOne(o, scratch)
	} else {
		runErr = runAll(o, scratch)
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "benchmark: FAILED:", runErr)
		return 1
	}
	return 0
}

// defaultSeconds is the measured window; BENCHMARK.json's run_seconds
// records the same value.
const defaultSeconds = 15

func (o options) config(scratch string) runConfig {
	cfg := runConfig{
		seed:    o.seed,
		window:  time.Duration(o.seconds) * time.Second,
		warmup:  3 * time.Second,
		preload: 500,
		trials:  3,
		probes:  1000,
		dir:     scratch,

		corruptModel: o.corrupt,
	}
	if o.smoke {
		cfg.window = time.Second
		cfg.warmup = 200 * time.Millisecond
		cfg.preload = 50
		cfg.trials = 2
		cfg.probes = 50
	}
	return cfg
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one run's metrics for a reader — name, value, unit, and
// the sample count where the metric is a sampled timing — and renders
// them as a result line. A metric defs names and res lacks is an error,
// never a silent zero.
func report(stdout io.Writer, w workload, cfg runConfig, defs []metricDef, res results, m measured) (resultLine, error) {
	fmt.Fprintf(stdout, "# %s seed=%d window=%s over %d trials warmup=%s preload=%d clients=%d sync=%s\n",
		w.Name, cfg.seed, cfg.window, cfg.trials, cfg.warmup, cfg.preload, numClients, syncPolicy)
	attempted, failed, failure := m.attempted()
	if failed > 0 {
		fmt.Fprintf(stdout, "# %d transaction(s) failed; the first: %s\n", failed, failure)
	}
	l := resultLine{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v, ok := res[d.Name]
		if !ok {
			return l, fmt.Errorf("%s: metric %s was not measured", w.Name, d.Name)
		}
		if v.N > 0 {
			fmt.Fprintf(stdout, "%-34s %14.4f %-8s n=%d\n", d.Name, v.V, d.Unit, v.N)
		} else {
			fmt.Fprintf(stdout, "%-34s %14.4f %s\n", d.Name, v.V, d.Unit)
		}
		l.Metrics[d.Name] = metricJSON{Value: v.V, Unit: d.Unit}
	}
	return l, nil
}

// traced runs the ladder on a measured run's image and returns every
// per-layer metric: the window's counters plus the probes.
func traced(stdout io.Writer, w workload, cfg runConfig, m measured, out string) (results, error) {
	tr := newTracer()
	res, err := probe(w, cfg, m.image, tr)
	if err != nil {
		return nil, err
	}
	for k, v := range m.windowLayer() {
		res[k] = v
	}
	if err := tr.write(out); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(stdout, "# %s: %d spans in %s\n", w.Name, len(tr.spans), out)
	return res, nil
}

func (o options) spanFile(w workload) string {
	if o.traceOut != "" {
		return o.traceOut
	}
	return filepath.Join(o.dir, "trace-"+w.Name+".json")
}

// runOne is the driver's form: one workload, one result line.
func runOne(o options, scratch string) error {
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	cfg := o.config(scratch)
	m, err := measure(w, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	defs, res := endToEnd, m.endToEnd()
	if o.trace == 1 {
		defs = perLayer
		if res, err = traced(o.stdout, w, cfg, m, o.spanFile(w)); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	l, err := report(o.stdout, w, cfg, defs, res, m)
	if err != nil {
		return err
	}
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	fmt.Fprintln(o.stdout, string(b))
	return nil
}

// runAll is the reader's form: every workload measured, and only then
// the traced pass over each; with -repeat the whole set again on the
// next seed, and a summary across sets.
func runAll(o options, scratch string) error {
	if o.trace != 0 || o.traceOut != "" {
		return errors.New("-trace and -trace-out belong to a single -workload run; without -workload both passes run and each workload gets its own span file")
	}
	allDefs := append(append([]metricDef(nil), endToEnd...), perLayer...)
	sets := make([]map[string]resultLine, 0, o.repeat)
	for i := 0; i < o.repeat; i++ {
		so := o
		so.seed = o.seed + int64(i)
		cfg := so.config(scratch)
		ms := make([]measured, len(workloads))
		for j, w := range workloads {
			var err error
			if ms[j], err = measure(w, cfg); err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
		}
		set := map[string]resultLine{}
		for j, w := range workloads {
			res, err := traced(o.stdout, w, cfg, ms[j], so.spanFile(w))
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			for k, v := range ms[j].endToEnd() {
				res[k] = v
			}
			if set[w.Name], err = report(o.stdout, w, cfg, allDefs, res, ms[j]); err != nil {
				return err
			}
		}
		sets = append(sets, set)
	}
	med, worst := summarize(o.stdout, sets, allDefs)
	if o.out != "" {
		b, err := json.MarshalIndent(baseline{
			Environment: environment(o), Load: loadShape(o.config(scratch)),
			Sets: len(sets), Results: med,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if o.check && worst != "" {
		return fmt.Errorf("sets disagree beyond the bound: %s", worst)
	}
	return nil
}

// baseline is the file -out writes: per workload the same object a run
// prints, holding medians across sets, with where they were taken.
type baseline struct {
	Environment map[string]any        `json:"environment"`
	Load        map[string]any        `json:"load"`
	Sets        int                   `json:"sets"`
	Results     map[string]resultLine `json:"results"`
}

func environment(o options) map[string]any {
	kernel := "unknown"
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	return map[string]any{
		"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH,
		"kernel": kernel, "sync_policy": syncPolicy.String(),
		"seed": o.seed, "commit": o.commit,
	}
}

func loadShape(cfg runConfig) map[string]any {
	return map[string]any{
		"loop": "closed", "clients": numClients, "ops_per_txn": opsPerTxn,
		"warmup_s": cfg.warmup.Seconds(), "window_s": cfg.window.Seconds(),
		"preload_txns": cfg.preload, "trials": cfg.trials, "probe_calls": cfg.probes,
		"max_resubmits": maxResubmits,
	}
}

// summarize prints, per workload and metric, the median and quartiles
// across sets, and returns the medians and the end-to-end metric whose
// spread most exceeds its bound ("" when none does).
func summarize(stdout io.Writer, sets []map[string]resultLine, defs []metricDef) (map[string]resultLine, string) {
	med := map[string]resultLine{}
	worst, worstBy := "", 0.0
	for _, w := range workloads {
		l := resultLine{Correct: true, Metrics: map[string]metricJSON{}}
		if len(sets) > 1 {
			fmt.Fprintf(stdout, "## %s across %d sets\n", w.Name, len(sets))
		}
		for _, set := range sets {
			l.Attempted += set[w.Name].Attempted
			l.Failed += set[w.Name].Failed
		}
		for _, d := range defs {
			xs := make([]float64, len(sets))
			for i, set := range sets {
				xs[i] = set[w.Name].Metrics[d.Name].Value
			}
			m := median(append([]float64(nil), xs...))
			l.Metrics[d.Name] = metricJSON{Value: m, Unit: d.Unit}
			if len(sets) < 2 {
				continue
			}
			q1, q3 := quartiles(xs)
			sp := spread(xs)
			verdict := ""
			if d.Bound > 0 {
				verdict = fmt.Sprintf(" bound=%.2f ok", d.Bound)
				if sp > d.Bound {
					verdict = fmt.Sprintf(" bound=%.2f EXCEEDED", d.Bound)
					if sp-d.Bound > worstBy {
						worst, worstBy = fmt.Sprintf("%s %s spread %.3f > %.2f", w.Name, d.Name, sp, d.Bound), sp-d.Bound
					}
				}
			}
			fmt.Fprintf(stdout, "%-34s median=%14.4f q1=%14.4f q3=%14.4f %-8s spread=%.3f%s\n", d.Name, m, q1, q3, d.Unit, sp, verdict)
		}
		med[w.Name] = l
	}
	return med, worst
}
