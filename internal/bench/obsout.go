package bench

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"pushpull/internal/obs"
)

// ObsOutputs is the -metrics/-trace/-http flag set of an instrumented
// run: where the observability suite attached to a sweep leaves what
// it saw. Naming any of the three attaches a suite; naming none leaves
// the run uninstrumented.
type ObsOutputs struct {
	metrics, trace, http string
	suite                *obs.Suite
	srv                  *http.Server
}

// Flags registers the three flags on fs.
func (o *ObsOutputs) Flags(fs *flag.FlagSet) {
	fs.StringVar(&o.metrics, "metrics", "", "write the run's Prometheus-text metrics dump to this file")
	fs.StringVar(&o.trace, "trace", "", "write the run's Chrome trace_event timeline (chrome://tracing) to this file")
	fs.StringVar(&o.http, "http", "", "serve /debug/pushpull, /debug/pushpull/json and /debug/pprof on this address during the run")
}

// Start returns the suite to attach to the run, or nil when no output
// was asked for. With -http it serves the live exposition until Finish.
func (o *ObsOutputs) Start(stderr io.Writer) *obs.Suite {
	if o.metrics == "" && o.trace == "" && o.http == "" {
		return nil
	}
	o.suite = obs.New()
	o.suite.Metrics.PublishExpvar("pushpull")
	if o.http != "" {
		o.srv = &http.Server{Addr: o.http, Handler: o.suite.Metrics.Handler()}
		go func() {
			if err := o.srv.ListenAndServe(); err != http.ErrServerClosed {
				fmt.Fprintf(stderr, "http: %v\n", err)
			}
		}()
		fmt.Fprintf(stderr, "serving http://%s/debug/pushpull\n", o.http)
	}
	return o.suite
}

// Finish writes the requested files and runs the span leak check:
// every BEGIN must have had its matching CMT/ABORT pop. A run that
// attached no suite finishes with nothing to do.
func (o *ObsOutputs) Finish(stderr io.Writer) error {
	if o.suite == nil {
		return nil
	}
	if o.srv != nil {
		o.srv.Close()
	}
	if o.metrics != "" {
		if err := writeFile(o.metrics, o.suite.Metrics.WritePrometheus); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "metrics: %s\n", o.metrics)
	}
	if o.trace != "" {
		// Load the file in chrome://tracing or Perfetto.
		if err := writeFile(o.trace, o.suite.Spans.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "timeline: %s (%d spans, %d rows dropped)\n",
			o.trace, o.suite.Spans.Completed(), o.suite.Spans.Dropped())
	}
	if err := o.suite.LeakCheck(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "spans: %d completed, 0 leaked\n", o.suite.Spans.Completed())
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
