package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/metrics"
	"mcmgpu/internal/metricstream"
	"mcmgpu/internal/workload"
)

// denseSystems are the tension study's three systems, in the column order
// of the golden tension table.
var denseSystems = []struct {
	column string
	cfg    func() *config.Config
}{
	{"Baseline MCM-GPU", config.BaselineMCM},
	{"DS+FT (optimized)", config.OptimizedMCM},
	{"Tiled2D+region-aware", config.TiledRegionMCM},
}

// denseCell is one (dense workload, system) pair.
type denseCell struct {
	spec *workload.Spec
	sys  int
}

// dense is the dense-cell workload: one op is core.New + Machine.Run of
// one full-size dense cell, taken round-robin over the six cells.
type dense struct {
	cells []denseCell
	cfgs  []*config.Config
	// want holds the golden tension rows (seed 0 only): for each workload
	// name, the "(full size)" speedups and "inter-GPM GB/s" values by
	// system.
	want map[string]denseWant
	// ref is each cell's first result as JSON; later runs of the cell must
	// match it byte for byte.
	ref   [][]byte
	round []*core.Result

	tracedOps int
	round0    map[string]float64 // per-layer counts of the first traced round
	maxLink   float64
	maxDRAM   float64
}

type denseWant struct {
	speedup, gbps [3]string
}

func newDense(e env) (bench, error) {
	d := &dense{round0: map[string]float64{}}
	for _, s := range workload.Dense() {
		spec := *s
		if e.seed != 0 {
			spec.Seed ^= mix(uint64(e.seed))
		}
		for sys := range denseSystems {
			d.cells = append(d.cells, denseCell{spec: &spec, sys: sys})
		}
	}
	for _, s := range denseSystems {
		cfg := s.cfg()
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		d.cfgs = append(d.cfgs, cfg)
	}
	for _, c := range d.cells {
		if err := c.spec.Validate(); err != nil {
			return nil, err
		}
	}
	d.ref = make([][]byte, len(d.cells))
	d.round = make([]*core.Result, len(d.cells))
	if e.seed == 0 {
		tabs, err := loadGolden(e.root)
		if err != nil {
			return nil, err
		}
		if d.want, err = denseExpectations(tabs); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// denseExpectations extracts the full-size rows of the golden tension
// table.
func denseExpectations(tabs []goldenTable) (map[string]denseWant, error) {
	var tension *goldenTable
	for i := range tabs {
		if tabs[i].ID == "tension" {
			tension = &tabs[i]
		}
	}
	if tension == nil {
		return nil, fmt.Errorf("golden snapshot has no tension table")
	}
	col := map[string]int{}
	for i, h := range tension.Head {
		col[h] = i
	}
	want := map[string]denseWant{}
	for _, s := range workload.Dense() {
		var w denseWant
		for _, row := range []struct {
			label string
			dst   *[3]string
		}{{s.Name + " (full size)", &w.speedup}, {s.Name + " inter-GPM GB/s", &w.gbps}} {
			r := tension.row(row.label)
			if r == nil {
				return nil, fmt.Errorf("golden tension table has no row %q", row.label)
			}
			for i, sys := range denseSystems {
				c, ok := col[sys.column]
				if !ok || c >= len(r) {
					return nil, fmt.Errorf("golden tension table has no column %q", sys.column)
				}
				row.dst[i] = r[c]
			}
		}
		want[s.Name] = w
	}
	return want, nil
}

func (d *dense) setup() (error, error) {
	_, err := d.op(0, nil)
	return err, nil
}

func (d *dense) unit() int   { return len(d.cells) }
func (d *dense) minOps() int { return 2 * len(d.cells) }
func (d *dense) close()      {}

func (d *dense) peakRSSMB(opPeaks []float64) (float64, error) { return median(opPeaks), nil }

func (d *dense) op(i int, tr *tracer) (float64, error) {
	idx := i % len(d.cells)
	c := d.cells[idx]
	d.round[idx] = nil

	start := time.Now()
	tr.begin("core.New")
	m, err := core.New(d.cfgs[c.sys].Clone())
	tr.end()
	if err != nil {
		return 0, err
	}
	var (
		res    *core.Result
		stream bytes.Buffer
		opts   core.RunOptions
	)
	if tr != nil {
		opts.Metrics = metrics.NewRecorder(&stream, 0, false)
	}
	run := func() { res, err = m.RunWith(c.spec, opts) }
	tr.begin("core.Machine.Run")
	t0 := time.Now()
	if tr != nil {
		mallocs, allocBytes := memDelta(run)
		tr.add("core.mallocs", float64(mallocs))
		tr.add("core.alloc_bytes", float64(allocBytes))
	} else {
		run()
	}
	runNS := float64(time.Since(t0).Nanoseconds())
	tr.end()
	if err != nil {
		return 0, err
	}
	if tr != nil {
		events, err := kernelEvents(&stream)
		if err != nil {
			return 0, err
		}
		tr.add("engine.events", events)
		tr.add("core.run_ns", runNS)
		tr.add("sim.memops_traced", float64(res.MemOps))
		if d.tracedOps < len(d.cells) {
			d.addRound(res)
		}
		d.tracedOps++
	}
	seconds := time.Since(start).Seconds()
	d.round[idx] = res
	return seconds, d.check(idx, res)
}

// kernelEvents sums the dispatched-event counts of a metrics stream's
// kernel records.
func kernelEvents(stream *bytes.Buffer) (float64, error) {
	sc, err := metricstream.NewScanner(stream, metricstream.FormatNDJSON)
	if err != nil {
		return 0, err
	}
	var events float64
	for sc.Scan() {
		if r := sc.Record(); r.Type == metricstream.TypeKernel {
			events += float64(r.Events)
		}
	}
	return events, sc.Err()
}

// addRound accumulates one traced cell into the first traced round's
// model counts.
func (d *dense) addRound(r *core.Result) {
	c := d.round0
	c["sim.warp_instrs"] += float64(r.WarpInstrs)
	c["sim.memops"] += float64(r.MemOps)
	c["sim.cycles"] += float64(r.Cycles)
	for _, l := range []struct {
		name string
		acc  uint64
		rate float64
	}{{"l1", r.L1Accesses, r.L1HitRate}, {"l15", r.L15Accesses, r.L15HitRate}, {"l2", r.L2Accesses, r.L2HitRate}} {
		c["cache."+l.name+"_accesses"] += float64(l.acc)
		c["cache."+l.name+"_hits"] += math.Round(l.rate * float64(l.acc))
	}
	c["noc.inter_module_bytes"] += float64(r.InterModuleBytes)
	c["dram.bytes"] += float64(r.DRAMBytes)
	c["vm.mapped_pages"] += float64(r.MappedPages)
	c["vm.local_fraction_sum"] += r.LocalFraction
	d.maxLink = math.Max(d.maxLink, r.MaxLinkUtil)
	d.maxDRAM = math.Max(d.maxDRAM, r.PeakDRAMUtil)
}

// check compares one cell's result with its reference: byte-identical to
// the cell's first result in this process, and at seed 0 equal to the
// golden tension rows — the cell's inter-GPM GB/s, and at the end of each
// round every speedup over the baseline.
func (d *dense) check(idx int, res *core.Result) error {
	c := d.cells[idx]
	js, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if d.ref[idx] == nil {
		d.ref[idx] = js
	} else if !bytes.Equal(js, d.ref[idx]) {
		return fmt.Errorf("%s on %s: result differs from its first run", c.spec.Name, res.Config)
	}
	if d.want == nil {
		return nil
	}
	w := d.want[c.spec.Name]
	if err := checkDenseGBps(res, w.gbps[c.sys]); err != nil {
		return err
	}
	if idx == len(d.cells)-1 {
		return checkDenseRound(d.cells, d.round, d.want)
	}
	return nil
}

func checkDenseGBps(res *core.Result, want string) error {
	if got := fmtCell(res.InterModuleGBps); got != want {
		return fmt.Errorf("%s on %s: inter-GPM GB/s %s, golden %s", res.Workload, res.Config, got, want)
	}
	return nil
}

// checkDenseRound checks every speedup over the baseline of one complete
// round against the golden "(full size)" rows.
func checkDenseRound(cells []denseCell, round []*core.Result, want map[string]denseWant) error {
	base := map[string]*core.Result{}
	for i, c := range cells {
		if c.sys == 0 {
			base[c.spec.Name] = round[i]
		}
	}
	for i, c := range cells {
		b, r := base[c.spec.Name], round[i]
		if b == nil || r == nil {
			return fmt.Errorf("%s: incomplete round", c.spec.Name)
		}
		if got, w := fmtCell(r.SpeedupOver(b)), want[c.spec.Name].speedup[c.sys]; got != w {
			return fmt.Errorf("%s on %s: speedup %s, golden %s", c.spec.Name, r.Config, got, w)
		}
	}
	return nil
}

func (d *dense) layers(tr *tracer, m map[string]float64) {
	c, k := d.round0, tr.counts
	for _, name := range []string{"sim.warp_instrs", "sim.memops", "sim.cycles",
		"cache.l1_accesses", "cache.l15_accesses", "cache.l2_accesses",
		"noc.inter_module_bytes", "dram.bytes", "vm.mapped_pages"} {
		m[name] = c[name]
	}
	for _, l := range []string{"l1", "l15", "l2"} {
		m["cache."+l+"_hit_rate"] = ratio(c["cache."+l+"_hits"], c["cache."+l+"_accesses"])
	}
	m["noc.max_link_util"] = d.maxLink
	m["dram.peak_util"] = d.maxDRAM
	m["vm.local_fraction"] = c["vm.local_fraction_sum"] / float64(len(d.cells))

	memops := k["sim.memops_traced"]
	m["engine.events_per_memop"] = ratio(k["engine.events"], memops)
	m["core.host_ns_per_event"] = ratio(k["core.run_ns"], k["engine.events"])
	m["core.host_ns_per_memop"] = ratio(k["core.run_ns"], memops)
	m["core.allocs_per_memop"] = ratio(k["core.mallocs"], memops)
	m["core.alloc_bytes_per_memop"] = ratio(k["core.alloc_bytes"], memops)
	m["core.new_ms"] = tr.meanMS("core.New")
	m["core.run_ms"] = tr.meanMS("core.Machine.Run")
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fmtCell renders a float the way the experiment tables do.
func fmtCell(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// mix spreads a workload seed over 64 bits (splitmix64's finalizer), so
// small seeds still perturb every generator they are XORed into.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
