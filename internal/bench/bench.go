// Package bench drives the reproduction's experiments: workload
// generators, model-level strategy sweeps, substrate throughput sweeps,
// and table formatting for EXPERIMENTS.md and the pushpull-bench CLI.
//
// Because the paper's evaluation is qualitative, the primary "shape"
// metrics here are scheduler-robust ones — commit/abort ratios,
// fallback and cascade counts, serializability verdicts — with
// wall-clock throughput reported alongside (hardware-dependent, shapes
// only).
package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"pushpull/internal/adt"
	"pushpull/internal/core"
	"pushpull/internal/lang"
	"pushpull/internal/sched"
	"pushpull/internal/serial"
	"pushpull/internal/spec"
	"pushpull/internal/strategy"
)

// Registry returns the standard experiment object set.
func Registry() *spec.Registry {
	r := spec.NewRegistry()
	r.Register("mem", adt.Register{})
	r.Register("set", adt.Set{})
	r.Register("ht", adt.Map{})
	r.Register("ctr", adt.Counter{})
	return r
}

// ModelParams configures a model-level strategy run.
type ModelParams struct {
	Strategy  string `json:"strategy"` // optimistic | partialabort | boosting | matveev | dependent | irrevocable-mix
	Threads   int    `json:"threads"`
	TxnsEach  int    `json:"txns_each"`
	Keys      int    `json:"keys"`     // key range; fewer keys = more contention
	ReadPct   int    `json:"read_pct"` // percentage of read-only transactions
	Seed      int64  `json:"seed"`
	OpsPerTxn int    `json:"-"` // operations per transaction (default 3)
}

// ModelResult reports a model-level run.
type ModelResult struct {
	Params       ModelParams   `json:"-"` // flattened into the row by MarshalJSON
	Commits      int           `json:"commits"`
	Aborts       int           `json:"aborts"`
	GaveUp       int           `json:"gave_up"`
	Cascades     int           `json:"cascades"`
	Serializable bool          `json:"serializable"`
	Opaque       bool          `json:"opaque"`
	Duration     time.Duration `json:"-"` // encoded as duration_ms
}

// AbortRatio is the fraction of attempts that aborted.
func (r ModelResult) AbortRatio() float64 {
	return AbortRatio(uint64(r.Aborts), uint64(r.Commits))
}

// genTxn generates one random transaction over the key range.
func genTxn(rng *rand.Rand, name string, p ModelParams) lang.Txn {
	ops := p.OpsPerTxn
	if ops <= 0 {
		ops = 3
	}
	readOnly := rng.Intn(100) < p.ReadPct
	var b strings.Builder
	fmt.Fprintf(&b, "tx %s { ", name)
	for i := 0; i < ops; i++ {
		k := rng.Intn(p.Keys)
		if readOnly {
			switch rng.Intn(3) {
			case 0:
				fmt.Fprintf(&b, "v%d := ht.get(%d); ", i, k)
			case 1:
				fmt.Fprintf(&b, "v%d := set.contains(%d); ", i, k)
			default:
				fmt.Fprintf(&b, "v%d := mem.read(%d); ", i, k)
			}
			continue
		}
		switch rng.Intn(5) {
		case 0:
			fmt.Fprintf(&b, "ht.put(%d, %d); ", k, rng.Intn(100)+1)
		case 1:
			fmt.Fprintf(&b, "set.add(%d); ", k)
		case 2:
			fmt.Fprintf(&b, "set.remove(%d); ", k)
		case 3:
			fmt.Fprintf(&b, "mem.write(%d, %d); ", k, rng.Intn(100))
		default:
			fmt.Fprintf(&b, "v%d := ht.get(%d); ", i, k)
		}
	}
	b.WriteString("}")
	return lang.MustParseTxn(b.String())
}

// NewDriver builds the named strategy driver.
func NewDriver(name string, t *core.Thread, txns []lang.Txn, cfg strategy.Config, env *strategy.Env) (strategy.Driver, error) {
	switch name {
	case "optimistic":
		return strategy.NewOptimistic(t.Name, t, txns, cfg, env), nil
	case "partialabort":
		d := strategy.NewOptimistic(t.Name, t, txns, cfg, env)
		d.PartialAbort = true
		return d, nil
	case "boosting":
		return strategy.NewBoosting(t.Name, t, txns, cfg, env), nil
	case "matveev":
		return strategy.NewMatveevShavit(t.Name, t, txns, cfg, env), nil
	case "dependent":
		return strategy.NewDependent(t.Name, t, txns, cfg, env), nil
	case "irrevocable":
		return strategy.NewIrrevocable(t.Name, t, txns, cfg, env), nil
	default:
		return nil, fmt.Errorf("bench: unknown strategy %q", name)
	}
}

// StrategyNames lists the sweepable model strategies.
func StrategyNames() []string {
	return []string{"optimistic", "partialabort", "boosting", "matveev", "dependent"}
}

// RunModel executes one model-level run and certifies the result.
func RunModel(p ModelParams) (ModelResult, error) {
	reg := Registry()
	m := core.NewMachine(reg, core.Options{Mode: spec.MoverHybrid, EnforceGray: true, RecordEvents: true})
	env := strategy.NewEnv()
	rng := rand.New(rand.NewSource(p.Seed))

	var drivers []strategy.Driver
	for i := 0; i < p.Threads; i++ {
		th := m.Spawn(fmt.Sprintf("%s%d", p.Strategy, i))
		var txns []lang.Txn
		for j := 0; j < p.TxnsEach; j++ {
			txns = append(txns, genTxn(rng, fmt.Sprintf("t%d_%d", i, j), p))
		}
		var d strategy.Driver
		var err error
		if p.Strategy == "irrevocable-mix" {
			if i == 0 {
				d, err = NewDriver("irrevocable", th, txns, strategy.Config{}, env)
			} else {
				d, err = NewDriver("optimistic", th, txns, strategy.Config{}, env)
			}
		} else {
			d, err = NewDriver(p.Strategy, th, txns, strategy.Config{}, env)
		}
		if err != nil {
			return ModelResult{}, err
		}
		drivers = append(drivers, d)
	}

	start := time.Now()
	if err := sched.RunRandom(m, drivers, p.Seed, 200_000*p.Threads); err != nil {
		return ModelResult{}, err
	}
	dur := time.Since(start)

	res := ModelResult{Params: p, Duration: dur}
	for _, d := range drivers {
		st := d.Stats()
		res.Commits += st.Commits
		res.Aborts += st.Aborts
		res.GaveUp += st.GaveUp
		res.Cascades += st.Cascades
	}
	rep := serial.CheckCommitOrder(m)
	res.Serializable = rep.Serializable
	res.Opaque = len(serial.CheckOpacity(m.Events())) == 0
	return res, nil
}

// Row is one formatted table row.
type Row []string

// Table renders rows with a header in aligned plain text.
func Table(header Row, rows []Row) string {
	all := append([]Row{header}, rows...)
	widths := make([]int, len(header))
	for _, r := range all {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for ri, r := range all {
		for i, c := range r {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteString("\n")
		if ri == 0 {
			for i := range header {
				b.WriteString(strings.Repeat("-", widths[i]) + "  ")
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// SweepModel runs every strategy across the given contention levels
// (key ranges; p.Strategy and p.Keys are overridden per cell) and
// renders the comparison table — experiment E4/E5/E7's model-level
// shape data.
func SweepModel(p ModelParams, keyRanges []int) (string, []ModelResult, error) {
	var rows []Row
	var results []ModelResult
	for _, keys := range keyRanges {
		for _, s := range StrategyNames() {
			p.Strategy, p.Keys = s, keys
			res, err := RunModel(p)
			if err != nil {
				return "", nil, fmt.Errorf("%s/keys=%d: %w", s, keys, err)
			}
			results = append(results, res)
			rows = append(rows, Row{
				s, fmt.Sprintf("%d", keys),
				fmt.Sprintf("%d", res.Commits), fmt.Sprintf("%d", res.Aborts),
				fmt.Sprintf("%.2f", abortsPerCommit(uint64(res.Aborts), uint64(res.Commits))),
				fmt.Sprintf("%v", res.Serializable), fmt.Sprintf("%v", res.Opaque),
				res.Duration.Round(time.Millisecond).String(),
			})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i][1] < rows[j][1] })
	table := Table(Row{"strategy", "keys", "commits", "aborts", "aborts/commit", "serializable", "opaque", "time"}, rows)
	return table, results, nil
}
