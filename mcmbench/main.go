// Command mcmbench is the repository benchmark. It drives one workload
// against the simulator from one goroutine, one op at a time (a closed loop
// with one client), for a fixed wall time, checks every op's output against
// the repository's own reference, and prints one JSON result line. From
// the repository root, run.sh builds it and mcmserve and runs it:
//
//	bash mcmbench/run.sh --workload dense-cell --seed 0 --seconds 15 --trace 0
//
// With -trace 0 the line carries the end-to-end metrics; with -trace 1 a
// separate traced run times the calls into each layer from this package and
// carries the per-layer metrics. README.md has the workloads, the metric
// glossary and how the metrics relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setups is how many times a timed run performs its set-up; setup_s is
// the median.
const setups = 3

// bench is one benchmark workload.
type bench interface {
	// setup does the one-time work plus one untimed warm-up op whose output
	// is checked. A failed check is reported through checkErr; an error
	// means the workload cannot run at all.
	setup() (checkErr error, err error)
	// op runs op i and checks its output; a non-nil error is a failed op.
	// It returns the wall time of the op's calls into the program, which
	// leaves out the output check, or 0 if the op failed before the program
	// answered. tr is nil on untimed and timed ops and non-nil on traced ones.
	op(i int, tr *tracer) (float64, error)
	// unit is the number of consecutive ops the loop measures as a whole
	// (a dense-cell round); runs stop only on unit boundaries, and
	// op_ms_p50 is the median over units of the unit's mean op time.
	unit() int
	// minOps is the fewest ops a run performs, whatever its duration.
	minOps() int
	// peakRSSMB is the peak resident set of the process under test, in
	// MB, given this process's peak during each timed op.
	peakRSSMB(opPeaks []float64) (float64, error)
	// layers fills the per-layer metrics the traced ops gathered.
	layers(tr *tracer, m map[string]float64)
	close()
}

// env is what every workload is built from.
type env struct {
	root     string // repository root
	seed     int64
	mcmserve string // mcmserve binary, for serve-warm
	scratch  string // private writable directory under the checkout
}

// workloads maps each workload name to its constructor. The constructor
// and setup together are the timed set-up.
var workloads = map[string]func(env) (bench, error){
	"dense-cell":   newDense,
	"suite-golden": newSuite,
	"dse-scan":     newDSE,
	"serve-warm":   newServe,
}

// endToEnd and perLayer are the metric names and units each mode prints,
// in BENCHMARK.json order (TestMetricNamesMatchBenchmarkJSON pins that).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_ms_p50", "ms"},
}

type metricDef struct{ name, unit string }

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// main runs the benchmark on one P: the closed loop has one goroutine doing
// work, and the garbage collector then shares its CPU instead of taking
// the other one when the host lends it.
func main() {
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload: dense-cell, suite-golden, dse-scan or serve-warm")
		seed     = fs.Int64("seed", 0, "input seed (0 = the registry inputs the golden checks need)")
		seconds  = fs.Float64("seconds", 15, "wall time to measure")
		traceOn  = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		root     = fs.String("root", ".", "repository root")
		mcmserve = fs.String("mcmserve", "", "mcmserve binary (serve-warm)")
		out      = fs.String("out", ".bench_build/mcmbench", "directory for traces and temporary stores")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "mcmbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "mcmbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "mcmbench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "mcmbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	e := env{root: *root, seed: *seed, mcmserve: *mcmserve, scratch: scratch}
	d := time.Duration(*seconds * float64(time.Second))

	var res *result
	if *traceOn == 1 {
		res, err = traced(func() (bench, error) { return mk(e) }, d, stderr, *out, fmt.Sprintf("%s-seed%d", *name, *seed))
	} else {
		res, err = timed(func() (bench, error) { return mk(e) }, d, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "mcmbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "mcmbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// tally counts attempted and failed ops, logging each failure.
type tally struct {
	log               io.Writer
	attempted, failed int
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(t.log, "mcmbench: failed op: %v\n", err)
	}
}

// timed is the measured run: set up `setups` times (keeping the last
// instance), then run ops until d has passed on a unit boundary.
func timed(mk func() (bench, error), d time.Duration, stderr io.Writer) (*result, error) {
	var (
		w     bench
		tl    = tally{log: stderr}
		setup []float64
	)
	for k := 0; k < setups; k++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		var err error
		if w, err = mk(); err != nil {
			return nil, err
		}
		checkErr, err := w.setup()
		if err != nil {
			w.close()
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		tl.add(checkErr)
	}
	defer w.close()

	var (
		opMS, peaks []float64
		unitSec     float64
		whole       = true // every op of the current unit answered
	)
	start := time.Now()
	for i := 0; ; i++ {
		if i >= w.minOps() && i%w.unit() == 0 && time.Since(start) >= d {
			break
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		sec, err := w.op(i, nil)
		tl.add(err)
		peak, perr := selfPeakRSSMB()
		if perr != nil {
			return nil, perr
		}
		peaks = append(peaks, peak)
		unitSec += sec
		whole = whole && sec > 0
		if (i+1)%w.unit() == 0 {
			if whole {
				opMS = append(opMS, unitSec/float64(w.unit())*1e3)
			}
			unitSec, whole = 0, true
		}
	}
	rss, err := w.peakRSSMB(peaks)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "mcmbench: %d timed units, mean op ms per unit q1/median/q3 %.3f/%.3f/%.3f, set-ups %.4g s\n",
		len(opMS), quantile(opMS, 0.25), median(opMS), quantile(opMS, 0.75), setup)
	vals := map[string]float64{
		"setup_s":     median(setup),
		"peak_rss_mb": rss,
		"op_ms_p50":   median(opMS),
	}
	return newResult(tl, endToEnd, vals), nil
}

// tracedPairs is the fewest (untraced, traced) unit pairs a traced run
// measures, whatever its duration.
const tracedPairs = 6

// traced is the per-layer run: one set-up, then pairs of one untraced and
// one traced unit, alternating, until d has passed, with the CPU profile
// running throughout. trace.overhead_pct is the median over pairs of the
// traced unit's time over the untraced one's, so drift of the host's
// speed between pairs cancels.
func traced(mk func() (bench, error), d time.Duration, stderr io.Writer, out, stem string) (*result, error) {
	w, err := mk()
	if err != nil {
		return nil, err
	}
	defer w.close()
	tl := tally{log: stderr}
	checkErr, err := w.setup()
	if err != nil {
		return nil, err
	}
	tl.add(checkErr)

	tr := newTracer()
	i := 0
	unit := func(t *tracer) float64 {
		var sec float64
		for k := 0; k < w.unit(); k++ {
			s, err := w.op(i, t)
			tl.add(err)
			sec += s
			i++
		}
		return sec
	}
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	var ratios []float64
	start := time.Now()
	for len(ratios) < tracedPairs || i < w.minOps() || time.Since(start) < d {
		plain := unit(nil)
		withTrace := unit(tr)
		tr.plainUnits = append(tr.plainUnits, plain)
		ratios = append(ratios, ratio(withTrace, plain))
	}
	tr.profiledUnits = 2 * len(ratios)
	buckets, err := tr.stopProfile(prof)
	if err != nil {
		return nil, err
	}

	vals := map[string]float64{}
	for b, pct := range buckets {
		vals["prof."+b+"_pct"] = pct
	}
	w.layers(tr, vals)
	vals["trace.overhead_pct"] = (median(ratios) - 1) * 100
	for k := range vals {
		if !isPerLayer(k) {
			return nil, fmt.Errorf("workload reported unknown per-layer metric %q", k)
		}
	}
	if err := tr.write(filepath.Join(out, "traces"), stem); err != nil {
		return nil, err
	}
	return newResult(tl, perLayer, vals), nil
}

func newResult(tl tally, defs []metricDef, vals map[string]float64) *result {
	r := &result{
		Correct:   tl.failed == 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range defs {
		r.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return r
}

func isPerLayer(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

// median returns the middle value (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
