// Package cli is the run wiring the simulation commands share
// (cmd/experiments, cmd/sweep and cmd/mcmsim): the flags all three accept
// and the one setup and teardown sequence behind them. Setup arms the
// MCMGPU_FAULT plan, the run limits, the durable run store and the -metrics
// output on a runner.Runner; teardown closes the output and reports the
// store. Keeping it in one place is what keeps the commands' shared flags
// meaning the same thing.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"mcmgpu/internal/faultinject"
	"mcmgpu/internal/metricstream"
	"mcmgpu/internal/runner"
	"mcmgpu/internal/runstore"
)

// Flags holds the values of the shared flags.
type Flags struct {
	Scale           float64
	Timeout         time.Duration
	MaxEvents       uint64
	Audit           bool
	KeepGoing       bool
	Store           string
	Metrics         string
	MetricsInterval uint64
}

// Register defines the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.Float64Var(&f.Scale, "scale", 1.0, "workload scale factor (trades fidelity for speed)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "wall-clock budget for the whole invocation (0 = none)")
	fs.Uint64Var(&f.MaxEvents, "max-events", 0, "per-simulation event budget (0 = none)")
	fs.BoolVar(&f.Audit, "audit", false, "check simulation invariants (conservation laws) during every simulation; MCMGPU_AUDIT=1 forces this on")
	fs.BoolVar(&f.KeepGoing, "keep-going", false, "continue past a failed simulation (tables render it as ERR); exit 1 at the end")
	fs.StringVar(&f.Store, "store", "", "durable run store directory: serve warm cells from disk and persist fresh ones")
	fs.StringVar(&f.Metrics, "metrics", "", "stream per-interval time-series samples of every simulation to this file (NDJSON, or CSV when the path ends in .csv; a .gz suffix gzips either)")
	fs.Uint64Var(&f.MetricsInterval, "metrics-interval", 0, "sampling interval in cycles for -metrics (0 = default)")
	return f
}

// ParseExit maps a FlagSet.Parse error to the exit code flag.ExitOnError
// would have used: 0 for -h, 2 for a bad flag.
func ParseExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// Open performs the shared setup and returns a runner armed with it:
//   - the fault plan from MCMGPU_FAULT (a malformed plan is an error),
//   - the -max-events and -audit limits, and a -timeout deadline that
//     starts now,
//   - fail-fast unless -keep-going,
//   - the -store tier; a store that cannot be opened degrades to compute
//     with a warning,
//   - the -metrics output.
//
// Callers set the rest (Workers, caches, further limits). The returned
// close function must run at exit: it closes the metrics output, whose
// Close error is how a full disk reports a truncated stream, and then
// prints the store's stats. Diagnostics go to stderr prefixed with prog.
func (f *Flags) Open(prog string, stderr io.Writer) (*runner.Runner, func() error, error) {
	warnf := func(format string, args ...interface{}) {
		fmt.Fprintf(stderr, prog+": "+format+"\n", args...)
	}
	fault, err := faultinject.FromEnv()
	if err != nil {
		return nil, nil, err
	}
	r := &runner.Runner{FailFast: !f.KeepGoing, Fault: fault}
	r.Limits.MaxEvents = f.MaxEvents
	r.Limits.Audit = f.Audit
	if f.Timeout > 0 {
		r.Limits.WallDeadline = time.Now().Add(f.Timeout)
	}
	if f.Store != "" {
		store, err := runstore.Open(f.Store, runstore.WithLogf(warnf), runstore.WithFault(fault))
		if err != nil {
			warnf("store unavailable, computing without it: %v", err)
		} else {
			r.Store = store
		}
	}
	var out io.Closer
	if f.Metrics != "" {
		w, csv, err := metricstream.CreateOutput(f.Metrics)
		if err != nil {
			return nil, nil, err
		}
		out = w
		r.Metrics = &runner.MetricsOptions{Interval: f.MetricsInterval, W: w, CSV: csv}
	}
	closeRun := func() error {
		var err error
		if out != nil {
			err = out.Close()
		}
		if r.Store != nil {
			warnf("store: %v", r.Store.Stats())
		}
		return err
	}
	return r, closeRun, nil
}
