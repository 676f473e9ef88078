package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// perLayer lists every per-layer metric a traced run prints, in
// BENCHMARK.json order. A layer the workload does not enter reads 0.
var perLayer = []metricDef{
	// engine
	{"prof.engine_queue_pct", "%"},
	{"prof.engine_resource_pct", "%"},
	{"engine.events_per_memop", "events/memop"},
	{"core.host_ns_per_event", "ns"},
	// cache, noc, dram
	{"prof.cache_pct", "%"},
	{"prof.noc_pct", "%"},
	{"prof.dram_pct", "%"},
	{"cache.l1_accesses", "count"},
	{"cache.l15_accesses", "count"},
	{"cache.l2_accesses", "count"},
	{"cache.l1_hit_rate", "fraction"},
	{"cache.l15_hit_rate", "fraction"},
	{"cache.l2_hit_rate", "fraction"},
	{"noc.inter_module_bytes", "bytes"},
	{"noc.max_link_util", "fraction"},
	{"dram.bytes", "bytes"},
	{"dram.peak_util", "fraction"},
	// vm, cta
	{"prof.vm_pct", "%"},
	{"prof.cta_pct", "%"},
	{"vm.mapped_pages", "count"},
	{"vm.local_fraction", "fraction"},
	// sm, workload
	{"prof.sm_pct", "%"},
	{"prof.workload_pct", "%"},
	{"sim.warp_instrs", "count"},
	{"sim.memops", "count"},
	{"sim.cycles", "cycles"},
	// core
	{"prof.core_pct", "%"},
	{"core.new_ms", "ms"},
	{"core.run_ms", "ms"},
	{"core.host_ns_per_memop", "ns"},
	{"core.allocs_per_memop", "allocs/memop"},
	{"core.alloc_bytes_per_memop", "bytes/memop"},
	{"prof.gc_pct", "%"},
	{"prof.malloc_pct", "%"},
	// runner, experiments
	{"prof.runner_pct", "%"},
	{"runner.sims_per_pass", "count"},
	{"runner.memo_hits_per_pass", "count"},
	{"experiments.fig2_ms", "ms"},
	{"experiments.fig4_ms", "ms"},
	{"experiments.fig6_ms", "ms"},
	{"experiments.fig10_ms", "ms"},
	{"experiments.fig13_ms", "ms"},
	{"experiments.fig16_ms", "ms"},
	{"experiments.fig17_ms", "ms"},
	{"experiments.energy_ms", "ms"},
	{"experiments.gpmscale_ms", "ms"},
	// analytic, config
	{"prof.analytic_pct", "%"},
	{"prof.config_pct", "%"},
	{"analytic.new_estimator_us", "us"},
	{"analytic.closed_form_us", "us"},
	{"analytic.census_ft_ms", "ms"},
	{"analytic.census_region_ms", "ms"},
	// runstore
	{"runstore.get_ms", "ms"},
	{"runstore.put_ms", "ms"},
	{"runstore.entry_bytes", "bytes"},
	// client, mcmserve
	{"client.submit_ms", "ms"},
	{"client.batch_ms", "ms"},
	{"client.result_ms", "ms"},
	{"client.trip_ms_p90", "ms"},
	{"mcmserve.rss_growth_mb", "MB"},
	// everything else, and the cost of tracing itself
	{"prof.other_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// span is one timed call into a layer. Parent is the index of the
// enclosing span, -1 at the top.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

// tracer keeps spans and counts in memory; write saves them at exit. A nil
// *tracer records nothing, so ops take one unconditionally.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int
	counts map[string]float64

	plainUnits    []float64 // untraced unit times, seconds
	profiledUnits int       // units, traced or not, the CPU profile covers
	profile       []byte
	samples       []sample
	buckets       map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0)})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].End = time.Since(t.t0)
	t.open = t.open[:n]
}

// add accumulates a count.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// selfTimes fills each span's Self: its duration minus the time its direct
// children cover. Spans are strictly nested, so children never overlap.
func (t *tracer) selfTimes() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

// total returns the summed duration and the number of spans named name.
func (t *tracer) total(name string) (time.Duration, int) {
	if t == nil {
		return 0, 0
	}
	var sum time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	return sum, n
}

// seconds returns the duration of each span named name, in seconds.
func (t *tracer) seconds(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// meanMS returns the mean duration of the spans named name, in ms.
func (t *tracer) meanMS(name string) float64 {
	sum, n := t.total(name)
	if n == 0 {
		return 0
	}
	return sum.Seconds() * 1e3 / float64(n)
}

// cumNS returns the profiled CPU time of the samples with fn anywhere in
// their stack.
func (t *tracer) cumNS(fn string) float64 {
	var ns float64
	for _, s := range t.samples {
		for _, f := range s.stack {
			if f == fn {
				ns += float64(s.ns)
				break
			}
		}
	}
	return ns
}

// memDelta reads the allocation counters before and after fn.
func memDelta(fn func()) (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

func startProfile() (*bytes.Buffer, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return &buf, nil
}

// stopProfile ends the CPU profile and returns each bucket's share of the
// sampled CPU time, in percent.
func (t *tracer) stopProfile(buf *bytes.Buffer) (map[string]float64, error) {
	pprof.StopCPUProfile()
	t.profile = buf.Bytes()
	samples, err := parseProfile(t.profile)
	if err != nil {
		return nil, err
	}
	t.samples = samples
	t.buckets = bucketShares(samples)
	return t.buckets, nil
}

// write saves the spans (with self times), counts and profile under dir.
func (t *tracer) write(dir, stem string) error {
	t.selfTimes()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, stem+".json"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	err = enc.Encode(struct {
		Spans      []span             `json:"spans"`
		Counts     map[string]float64 `json:"counts"`
		Buckets    map[string]float64 `json:"profile_buckets_pct"`
		PlainUnits []float64          `json:"untraced_unit_s"`
	}{t.spans, t.counts, t.buckets, t.plainUnits})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, stem+".pprof"), t.profile, 0o644)
}

// procStatusKB reads one "<key>: <n> kB" line of /proc/<pid>/status.
func procStatusKB(pid, key string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("/proc/%s/status has no %s", pid, key)
}

// selfPeakRSSMB is this process's peak resident set since it started or
// since the last resetPeakRSS.
func selfPeakRSSMB() (float64, error) {
	kb, err := procStatusKB("self", "VmHWM")
	return kb / 1024, err
}

// resetPeakRSS restarts this process's peak resident set from its current
// resident set (Linux: writing 5 to /proc/self/clear_refs).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}
