package mcmgpu

import (
	"fmt"
	"sort"
	"time"

	"mcmgpu/internal/config"
	"mcmgpu/internal/energy"
	"mcmgpu/internal/faultinject"
	"mcmgpu/internal/report"
	"mcmgpu/internal/stats"
	"mcmgpu/internal/workload"
)

// Options controls how much work the experiment drivers simulate.
type Options struct {
	// Scale multiplies per-warp work and footprints (default 1, full size).
	// Benchmarks use smaller scales; headline ratios are stable down to
	// about 0.25.
	Scale float64
	// MaxPerCategory, when positive, trims the suite to the first N
	// workloads of each category for quick runs.
	MaxPerCategory int
	// Workers is the simulation-job parallelism (0 = GOMAXPROCS, 1 =
	// sequential). Parallel runs produce byte-identical tables; see
	// internal/runner for the determinism contract.
	Workers int
	// NoCache bypasses the process-wide run cache, forcing every suite to
	// simulate from scratch. Benchmarks measuring raw simulator speed set
	// this; experiment drivers leave it off so repeated reference suites
	// (the baseline MCM, the 6 TB/s link, the monolithic bounds) are
	// simulated once per process.
	NoCache bool

	// MaxEvents and MaxCycles bound every simulation job (0 = no limit);
	// a job exceeding its budget fails with a *SimError instead of hanging.
	MaxEvents uint64
	MaxCycles uint64
	// Deadline, when non-zero, is the wall-clock instant after which
	// running jobs are terminated with a *SimError. The CLIs derive it once
	// from -timeout so one deadline bounds the whole invocation.
	Deadline time.Time
	// KeepGoing switches the runner from fail-fast to collect-errors mode:
	// a failed (config, workload) cell is reported through Warnf and
	// rendered as ERR in the tables instead of aborting the experiment.
	KeepGoing bool
	// Fault is a deterministic fault-injection plan applied to matching
	// jobs; the zero value injects nothing. CLIs arm it from MCMGPU_FAULT.
	Fault faultinject.Plan
	// Audit enables the invariant auditor on every job: conservation laws
	// are checked at kernel boundaries (and periodically) and a violation
	// fails the job with a *SimError wrapping the structured violations.
	// Auditing only observes, so audited tables are byte-identical to
	// unaudited ones. CLIs arm it from -audit; MCMGPU_AUDIT=1 forces it on
	// regardless of this field.
	Audit bool
	// Warnf, when non-nil, receives diagnostics that must not pollute the
	// table output: failed cells in KeepGoing mode and non-zero
	// ClampedEvents counts. The CLIs route it to stderr.
	Warnf func(format string, args ...interface{})
	// Metrics, when non-nil with a writer, attaches the time-series sampler
	// to every simulation job and streams the per-job records (NDJSON or
	// CSV) to Metrics.W in job order. Sampling only observes: tables are
	// byte-identical with and without it. Jobs satisfied from the run cache
	// emit nothing (their stream was written when the entry was populated),
	// so pair Metrics with NoCache to re-stream previously cached suites.
	// CLIs arm it from -metrics / -metrics-interval.
	Metrics *MetricsOptions
	// Store, when non-nil, adds a durable content-addressed tier under the
	// run cache: warm cells are served from disk (metrics streams replayed)
	// and fresh results persisted, so identical work is simulated at most
	// once across processes. Store failures degrade to compute — an
	// unreadable entry is recomputed, never an error. CLIs arm it from
	// -store DIR.
	Store *RunStore
}

// warnf emits a diagnostic when a sink is configured.
func (o Options) warnf(format string, args ...interface{}) {
	if o.Warnf != nil {
		o.Warnf(format, args...)
	}
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

func (o Options) suite() []*Spec {
	if o.MaxPerCategory <= 0 {
		return workload.Suite()
	}
	var out []*Spec
	for _, cat := range []workload.Category{MemoryIntensive, ComputeIntensive, LimitedParallelism} {
		specs := workload.ByCategory(cat)
		n := o.MaxPerCategory
		if n > len(specs) {
			n = len(specs)
		}
		out = append(out, specs[:n]...)
	}
	return out
}

func (o Options) mIntensive() []*Spec {
	var out []*Spec
	for _, s := range o.suite() {
		if s.Category == MemoryIntensive {
			out = append(out, s)
		}
	}
	return out
}

// geomeanSpeedup aggregates sys-over-base speedups for the given specs.
// Workloads missing from either set (failed cells in KeepGoing mode) are
// skipped; if nothing survives, or a speedup is non-positive, an error is
// returned for the caller to render (typically via report.Cell).
func geomeanSpeedup(base, sys resultSet, specs []*Spec) (float64, error) {
	var xs []float64
	for _, s := range specs {
		b, ok1 := base[s.Name]
		r, ok2 := sys[s.Name]
		if ok1 && ok2 {
			xs = append(xs, r.SpeedupOver(b))
		}
	}
	if len(xs) == 0 && len(specs) > 0 {
		return 0, fmt.Errorf("geomean speedup: no surviving results for any of %d workloads", len(specs))
	}
	return stats.GeoMean(xs)
}

// speedupCell renders one per-app speedup, degrading to ERR when either run
// is missing from its result set.
func speedupCell(base, sys resultSet, name string) interface{} {
	b, ok1 := base[name]
	r, ok2 := sys[name]
	if !ok1 || !ok2 {
		return report.ErrCell
	}
	return r.SpeedupOver(b)
}

// gbpsCell renders one per-app inter-module bandwidth, degrading to ERR when
// the run is missing from its result set.
func gbpsCell(rs resultSet, name string) interface{} {
	r, ok := rs[name]
	if !ok {
		return report.ErrCell
	}
	return r.InterModuleGBps
}

// byCategory partitions specs.
func byCategory(specs []*Spec, c workload.Category) []*Spec {
	var out []*Spec
	for _, s := range specs {
		if s.Category == c {
			out = append(out, s)
		}
	}
	return out
}

// meanInterGPM returns the mean inter-module bandwidth in GB/s across specs.
func meanInterGPM(rs resultSet, specs []*Spec) float64 {
	var xs []float64
	for _, s := range specs {
		if r, ok := rs[s.Name]; ok {
			xs = append(xs, r.InterModuleGBps)
		}
	}
	return stats.Mean(xs)
}

// Table1 renders the paper's Table 1: key characteristics of recent NVIDIA
// GPUs (static published data).
func Table1() *Table {
	t := report.New("Table 1: Key characteristics of recent NVIDIA GPUs",
		"GPU", "SMs", "BW (GB/s)", "L2 (KB)", "Transistors (B)", "Tech node (nm)", "Chip size (mm2)")
	t.AddRow("Fermi", "16", "177", "768", "3.0", "40", "529")
	t.AddRow("Kepler", "15", "288", "1536", "7.1", "28", "551")
	t.AddRow("Maxwell", "24", "288", "3072", "8.0", "28", "601")
	t.AddRow("Pascal", "56", "720", "4096", "15.3", "16", "610")
	return t
}

// Table2 renders the paper's Table 2: bandwidth and energy per integration
// domain, as used by the simulator's energy meter.
func Table2() *Table {
	t := report.New("Table 2: Approximate bandwidth and energy parameters for integration domains",
		"Domain", "BW", "Energy (pJ/bit)", "Overhead")
	rows := []struct {
		d        energy.Domain
		bw, over string
	}{
		{energy.DomainChip, "10s TB/s", "Low"},
		{energy.DomainPackage, "1.5 TB/s", "Medium"},
		{energy.DomainBoard, "256 GB/s", "High"},
		{energy.DomainSystem, "12.5 GB/s", "Very High"},
	}
	for _, r := range rows {
		t.AddRowF(r.d.String(), r.bw, r.d.PJPerBit(), r.over)
	}
	return t
}

// Table3 renders the baseline MCM-GPU configuration actually used by the
// simulator (the paper's Table 3).
func Table3() *Table {
	c := config.BaselineMCM()
	t := report.New("Table 3: Baseline MCM-GPU configuration", "Parameter", "Value")
	t.AddRow("Number of GPMs", fmt.Sprint(c.Modules))
	t.AddRow("Total number of SMs", fmt.Sprint(c.TotalSMs()))
	t.AddRow("GPU frequency", "1 GHz")
	t.AddRow("Max warps per SM", fmt.Sprint(c.WarpsPerSM))
	t.AddRow("L1 data cache", fmt.Sprintf("%d KB per SM, %dB lines, %d ways", c.L1.SizeBytes/config.KB, c.L1.LineBytes, c.L1.Ways))
	t.AddRow("Total L2 cache", fmt.Sprintf("%d MB, %dB lines, %d ways", c.TotalL2Bytes()/config.MB, c.L2.LineBytes, c.L2.Ways))
	t.AddRow("Inter-GPM interconnect", fmt.Sprintf("%.0f GB/s per link, %v, %d cycles/hop", c.Link.GBps, c.Topology, c.Link.HopLatency))
	t.AddRow("Total DRAM bandwidth", fmt.Sprintf("%.0f GB/s", c.TotalDRAMGBps()))
	t.AddRow("DRAM latency", fmt.Sprintf("%d ns", c.DRAMLatency))
	t.AddRow("CTA scheduler", c.Scheduler.String())
	t.AddRow("Page placement", c.Placement.String())
	return t
}

// Table4 renders the memory-intensive workload registry with the paper's
// footprints and the model's scaled footprints.
func Table4() *Table {
	t := report.New("Table 4: Memory-intensive workloads",
		"Benchmark", "Pattern", "Paper footprint (MB)", "Model footprint (MB)", "CTAs", "Kernel iters")
	for _, s := range workload.MIntensive() {
		t.AddRowF(s.Name, s.Pattern.String(), s.PaperFootprintMB, s.ModelFootprintMB(), s.CTAs, s.KernelIters)
	}
	t.Note = "model footprints are scaled to simulation budgets; locality structure is preserved"
	return t
}

// AnalyticTable renders the Section 3.3.1 closed-form link sizing model.
func AnalyticTable() *Table {
	m := PaperAnalyticExample()
	t := report.New("Section 3.3.1: analytic inter-GPM bandwidth requirement",
		"Quantity", "Value")
	t.AddRow("GPMs", fmt.Sprint(m.Modules))
	t.AddRow("DRAM BW per partition (b)", fmt.Sprintf("%.0f GB/s", m.PartitionGBps))
	t.AddRow("Assumed L2 hit rate", fmt.Sprintf("%.0f%%", m.L2HitRate*100))
	t.AddRow("Delivered per partition", fmt.Sprintf("%.0f GB/s (2b)", m.DeliveredPerPartitionGBps()))
	t.AddRow("Total inter-GPM traffic (uniform)", fmt.Sprintf("%.0f GB/s", m.TotalInterGPMGBps()))
	t.AddRow("Required link bandwidth", fmt.Sprintf("%.0f GB/s (4b)", m.RequiredLinkGBps()))
	for _, l := range []float64{6144, 3072, 1536, 768, 384} {
		t.AddRow(fmt.Sprintf("Estimated throughput at %.0f GB/s links", l),
			fmt.Sprintf("%.0f%%", m.Slowdown(l)*100))
	}
	t.Note = "paper: links below 3 TB/s degrade performance; above it, no additional benefit"
	return t
}

// Fig2 regenerates Figure 2: hypothetical monolithic GPU scaling from 32 to
// 256 SMs with the memory system scaled proportionally, reported as speedup
// over the 32-SM GPU for high-parallelism and limited-parallelism
// application groups against linear scaling.
func Fig2(o Options) (*Table, error) {
	suite := o.suite()
	sms := []int{32, 64, 96, 128, 160, 192, 224, 256}
	base, err := o.runSuite(config.MustMonolithic(32), suite)
	if err != nil {
		return nil, err
	}
	t := report.New("Figure 2: GPU performance scaling with SM count (speedup over 32 SMs)",
		"SMs", "Linear", "High-parallelism apps", "Limited-parallelism apps")
	high := append(byCategory(suite, MemoryIntensive), byCategory(suite, ComputeIntensive)...)
	lim := byCategory(suite, LimitedParallelism)
	for _, n := range sms {
		var rs resultSet
		if n == 32 {
			rs = base
		} else {
			rs, err = o.runSuite(config.MustMonolithic(n), suite)
			if err != nil {
				return nil, err
			}
		}
		t.AddRowF(n, float64(n)/32,
			report.Cell(geomeanSpeedup(base, rs, high)),
			report.Cell(geomeanSpeedup(base, rs, lim)))
	}
	t.Note = "paper: high-parallelism apps reach 87.8% of linear at 256 SMs; limited apps plateau"
	return t, nil
}

// Fig4 regenerates Figure 4: performance sensitivity of the 256-SM MCM-GPU
// to inter-GPM link bandwidth, relative to an abundant 6 TB/s setting.
func Fig4(o Options) (*Table, error) {
	suite := o.suite()
	ref, err := o.runSuite(config.MCMWithLink(6144), suite)
	if err != nil {
		return nil, err
	}
	t := report.New("Figure 4: relative performance vs inter-GPM link bandwidth (1.0 = 6 TB/s)",
		"Link BW", "M-Intensive", "C-Intensive", "Lim-Parallel")
	mInt := byCategory(suite, MemoryIntensive)
	cInt := byCategory(suite, ComputeIntensive)
	lim := byCategory(suite, LimitedParallelism)
	for _, l := range []float64{6144, 3072, 1536, 768, 384} {
		var rs resultSet
		if l == 6144 {
			rs = ref
		} else {
			rs, err = o.runSuite(config.MCMWithLink(l), suite)
			if err != nil {
				return nil, err
			}
		}
		t.AddRowF(fmt.Sprintf("%.0f GB/s", l),
			report.Cell(geomeanSpeedup(ref, rs, mInt)),
			report.Cell(geomeanSpeedup(ref, rs, cInt)),
			report.Cell(geomeanSpeedup(ref, rs, lim)))
	}
	t.Note = "paper: M-intensive degrade 12%/40%/57% at 1.5TB/s / 768GB/s / 384GB/s"
	return t, nil
}

// fig6Configs returns the L1.5 design-space points of Figure 6.
func fig6Configs() []*Config {
	base := config.BaselineMCM()
	var out []*Config
	for _, size := range []int{8, 16, 32} {
		for _, pol := range []config.AllocPolicy{config.AllocAll, config.AllocRemoteOnly} {
			c := config.WithL15(base, size*config.MB, pol)
			c.Name = fmt.Sprintf("%dMB %s L1.5", size, pol)
			out = append(out, c)
		}
	}
	return out
}

// Fig6 regenerates Figure 6: speedup over the baseline MCM-GPU for L1.5
// capacities of 8/16/32 MB with allocate-all and remote-only policies, per
// memory-intensive application plus category geomeans.
func Fig6(o Options) (*Table, error) {
	suite := o.suite()
	base, err := o.runSuite(config.BaselineMCM(), suite)
	if err != nil {
		return nil, err
	}
	cfgs := fig6Configs()
	results := make([]resultSet, len(cfgs))
	for i, c := range cfgs {
		if results[i], err = o.runSuite(c, suite); err != nil {
			return nil, err
		}
	}
	headers := []string{"Workload"}
	for _, c := range cfgs {
		headers = append(headers, c.Name)
	}
	t := report.New("Figure 6: L1.5 design space, speedup over baseline MCM-GPU", headers...)
	for _, s := range o.mIntensive() {
		row := []interface{}{s.Name}
		for i := range cfgs {
			row = append(row, speedupCell(base, results[i], s.Name))
		}
		t.AddRowF(row...)
	}
	for _, cat := range []workload.Category{MemoryIntensive, ComputeIntensive, LimitedParallelism} {
		row := []interface{}{cat.String() + " geomean"}
		for i := range cfgs {
			row = append(row, report.Cell(geomeanSpeedup(base, results[i], byCategory(suite, cat))))
		}
		t.AddRowF(row...)
	}
	t.Note = "paper: 16MB remote-only is best iso-transistor (11.4% on M-intensive)"
	return t, nil
}

// Fig7 regenerates Figure 7: total inter-GPM bandwidth with and without the
// 16 MB remote-only L1.5 cache.
func Fig7(o Options) (*Table, error) {
	return interGPMTable(o,
		"Figure 7: inter-GPM bandwidth (GB/s), baseline vs 16MB remote-only L1.5",
		"paper: 28% average inter-GPM bandwidth reduction from the L1.5",
		namedConfig("16MB remote-only L1.5", l15Only16()))
}

// Fig9 regenerates Figure 9: speedup from distributed CTA scheduling
// combined with the 16 MB remote-only L1.5, over the baseline MCM-GPU.
func Fig9(o Options) (*Table, error) {
	return speedupTable(o,
		"Figure 9: speedup with distributed scheduling + 16MB remote-only L1.5",
		"paper: +23.4% / +1.9% / +5.2% on M-/C-intensive / limited-parallelism",
		namedConfig("L1.5+DS", l15DS16()))
}

// Fig10 regenerates Figure 10: inter-GPM bandwidth reduction from
// distributed scheduling on top of the L1.5.
func Fig10(o Options) (*Table, error) {
	return interGPMTable(o,
		"Figure 10: inter-GPM bandwidth (GB/s), baseline vs L1.5 + distributed scheduling",
		"paper: 33% average inter-GPM bandwidth reduction",
		namedConfig("16MB RO L1.5 + DS", l15DS16()))
}

// Fig13 regenerates Figure 13: performance with first-touch placement added
// (the full optimized design), for the 16 MB and 8 MB L1.5/L2 splits.
func Fig13(o Options) (*Table, error) {
	return speedupTable(o,
		"Figure 13: speedup with first-touch placement (full optimization)",
		"paper: 8MB split wins under FT: +51%/+11.3%/+7.9% by category",
		namedConfig("16MB RO L1.5+DS+FT", config.OptimizedMCM16()),
		namedConfig("8MB RO L1.5+DS+FT", config.OptimizedMCM()))
}

// Fig14 regenerates Figure 14: inter-GPM bandwidth with first-touch
// placement; the paper reports a 5x average reduction vs the baseline.
func Fig14(o Options) (*Table, error) {
	return interGPMTable(o,
		"Figure 14: inter-GPM bandwidth (GB/s) with first-touch placement",
		"paper: 5x average inter-GPM bandwidth reduction vs baseline MCM-GPU",
		namedConfig("16MB RO L1.5+DS+FT", config.OptimizedMCM16()),
		namedConfig("8MB RO L1.5+DS+FT", config.OptimizedMCM()))
}

// Fig15 regenerates Figure 15: the s-curve of optimized-MCM-GPU speedup over
// the baseline MCM-GPU across all 48 workloads, sorted ascending.
func Fig15(o Options) (*Table, error) {
	suite := o.suite()
	base, err := o.runSuite(config.BaselineMCM(), suite)
	if err != nil {
		return nil, err
	}
	opt, err := o.runSuite(config.OptimizedMCM(), suite)
	if err != nil {
		return nil, err
	}
	type entry struct {
		name string
		s    float64
	}
	var es []entry
	skipped := 0
	for _, s := range suite {
		b, ok1 := base[s.Name]
		r, ok2 := opt[s.Name]
		if !ok1 || !ok2 {
			skipped++
			continue
		}
		es = append(es, entry{s.Name, r.SpeedupOver(b)})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].s < es[j].s })
	t := report.New("Figure 15: optimized MCM-GPU speedup s-curve (sorted)", "Rank", "Workload", "Speedup")
	improved, degraded := 0, 0
	for i, e := range es {
		t.AddRowF(i+1, e.name, e.s)
		switch {
		case e.s > 1.005:
			improved++
		case e.s < 0.995:
			degraded++
		}
	}
	t.Note = fmt.Sprintf("%d improved, %d degraded; paper: 31 improved, 9 degraded", improved, degraded)
	if skipped > 0 {
		t.Note += fmt.Sprintf(" (%d workloads skipped: failed runs)", skipped)
	}
	return t, nil
}

// Fig16 regenerates Figure 16: each optimization applied alone and combined,
// compared against the unbuildable 6 TB/s MCM-GPU and 256-SM monolithic,
// as average speedup over the baseline MCM-GPU.
func Fig16(o Options) (*Table, error) {
	suite := o.suite()
	base, err := o.runSuite(config.BaselineMCM(), suite)
	if err != nil {
		return nil, err
	}
	systems := []namedCfg{
		namedConfig("Remote-only L1.5 alone", l15Only16()),
		namedConfig("Distributed scheduling alone", config.WithScheduler(config.BaselineMCM(), config.SchedDistributed)),
		namedConfig("First touch alone", config.WithPlacement(config.BaselineMCM(), config.PlaceFirstTouch)),
		namedConfig("MCM-GPU optimized (768 GB/s)", config.OptimizedMCM()),
		namedConfig("MCM-GPU (6 TB/s, unbuildable)", config.MCMWithLink(6144)),
		namedConfig("Monolithic 256 SM (unbuildable)", config.UnbuildableMonolithic()),
	}
	t := report.New("Figure 16: optimization breakdown, geomean speedup over baseline MCM-GPU (%)",
		"System", "Speedup (%)")
	for _, nc := range systems {
		rs, err := o.runSuite(nc.cfg, suite)
		if err != nil {
			return nil, err
		}
		if g, gerr := geomeanSpeedup(base, rs, suite); gerr != nil {
			t.AddRowF(nc.name, report.ErrCell)
		} else {
			t.AddRowF(nc.name, (g-1)*100)
		}
	}
	t.Note = "paper: L1.5 alone +5.2%, DS alone ~0%, FT alone -4.7%, combined +22.8%"
	return t, nil
}

// Fig17 regenerates Figure 17: the MCM-GPU against a two-GPU board-level
// system with the same total SMs and DRAM bandwidth.
func Fig17(o Options) (*Table, error) {
	suite := o.suite()
	base, err := o.runSuite(config.MultiGPUBaseline(), suite)
	if err != nil {
		return nil, err
	}
	systems := []namedCfg{
		namedConfig("Baseline multi-GPU", config.MultiGPUBaseline()),
		namedConfig("Optimized multi-GPU", config.MultiGPUOptimized()),
		namedConfig("MCM-GPU (768 GB/s)", config.OptimizedMCM()),
		namedConfig("MCM-GPU (6 TB/s, unbuildable)", config.MCMWithLink(6144)),
		namedConfig("Monolithic 256 SM (unbuildable)", config.UnbuildableMonolithic()),
	}
	t := report.New("Figure 17: MCM-GPU vs multi-GPU, geomean speedup over baseline multi-GPU",
		"System", "Speedup")
	for _, nc := range systems {
		var rs resultSet
		if nc.name == "Baseline multi-GPU" {
			rs = base
		} else if rs, err = o.runSuite(nc.cfg, suite); err != nil {
			return nil, err
		}
		t.AddRowF(nc.name, report.Cell(geomeanSpeedup(base, rs, suite)))
	}
	t.Note = "paper: optimized multi-GPU +25.1%, MCM-GPU +51.9% over baseline multi-GPU"
	return t, nil
}

// GPMScale is an extension beyond the paper: hold the 256-SM, 3 TB/s,
// 16 MB-budget machine constant and vary how many GPMs it is partitioned
// into (2–16). Smaller GPMs are cheaper to manufacture (the paper's yield
// argument) but expose more NUMA surface; rings stop scaling past 4 modules
// so the larger counts use a 2D mesh. The table reports performance
// relative to the unbuildable 256-SM monolithic die.
func GPMScale(o Options) (*Table, error) {
	suite := o.suite()
	mono, err := o.runSuite(config.UnbuildableMonolithic(), suite)
	if err != nil {
		return nil, err
	}
	t := report.New("Extension: GPM-count scaling at constant aggregate resources",
		"GPMs", "SMs/GPM", "Topology", "Perf vs monolithic-256", "Mean inter-GPM GB/s")
	for _, gpms := range []int{2, 4, 8, 16} {
		cfg := config.MustMCMGPMs(gpms)
		rs, err := o.runSuite(cfg, suite)
		if err != nil {
			return nil, err
		}
		t.AddRowF(gpms, 256/gpms, cfg.Topology.String(),
			report.Cell(geomeanSpeedup(mono, rs, suite)), meanInterGPM(rs, suite))
	}
	t.Note = "extension experiment; the paper evaluates only the 4-GPM point and notes topology exploration as out of scope"
	return t, nil
}

// EnergyTable quantifies Section 6.2's efficiency argument: data-movement
// energy per system, using the Table 2 per-bit costs. The MCM-GPU replaces
// 10 pJ/b board traffic with 0.5 pJ/b on-package traffic, and its locality
// optimizations then remove most of that too.
func EnergyTable(o Options) (*Table, error) {
	suite := o.suite()
	systems := []namedCfg{
		namedConfig("Baseline MCM-GPU", config.BaselineMCM()),
		namedConfig("Optimized MCM-GPU", config.OptimizedMCM()),
		namedConfig("Optimized multi-GPU", config.MultiGPUOptimized()),
		namedConfig("Monolithic 256 SM (unbuildable)", config.UnbuildableMonolithic()),
	}
	t := report.New("Section 6.2: data-movement energy (mJ, summed over the suite)",
		"System", "Chip", "Package", "Board", "DRAM", "Total", "Link pJ/byte moved")
	for _, nc := range systems {
		rs, err := o.runSuite(nc.cfg, suite)
		if err != nil {
			return nil, err
		}
		var chip, pkg, board, dram, total float64
		var linkBytes uint64
		for _, r := range rs {
			chip += r.EnergyPJ.Chip
			pkg += r.EnergyPJ.Package
			board += r.EnergyPJ.Board
			dram += r.EnergyPJ.DRAM
			total += r.EnergyPJ.Total
			linkBytes += r.InterModuleBytes
		}
		perByte := 0.0
		if linkBytes > 0 {
			perByte = (pkg + board) / float64(linkBytes)
		}
		t.AddRowF(nc.name, chip/1e9, pkg/1e9, board/1e9, dram/1e9, total/1e9, perByte)
	}
	t.Note = "Table 2 energies: chip 0.08, package 0.5, board 10 pJ/bit; lower total at equal work is better"
	return t, nil
}

// Headline computes the abstract's five headline comparisons.
func Headline(o Options) (*Table, error) {
	suite := o.suite()
	cfgs := map[string]*Config{
		"base":     config.BaselineMCM(),
		"opt":      config.OptimizedMCM(),
		"mono128":  config.LargestBuildableMonolithic(),
		"mono256":  config.UnbuildableMonolithic(),
		"multiOpt": config.MultiGPUOptimized(),
	}
	rs := map[string]resultSet{}
	for k, c := range cfgs {
		var err error
		if rs[k], err = o.runSuite(c, suite); err != nil {
			return nil, err
		}
	}
	t := report.New("Headline results (geomean across all workloads)", "Metric", "Measured", "Paper")
	pct := func(g float64, err error) string {
		if err != nil {
			return report.ErrCell
		}
		return fmt.Sprintf("+%.1f%%", (g-1)*100)
	}
	gap := func(g float64, err error) string {
		if err != nil {
			return report.ErrCell
		}
		return fmt.Sprintf("%.1f%%", (1-g)*100)
	}
	t.AddRowF("Optimized vs baseline MCM-GPU",
		pct(geomeanSpeedup(rs["base"], rs["opt"], suite)), "+22.8%")
	bwBase := meanInterGPM(rs["base"], suite)
	bwOpt := meanInterGPM(rs["opt"], suite)
	ratio := 0.0
	if bwOpt > 0 {
		ratio = bwBase / bwOpt
	}
	t.AddRowF("Inter-GPM bandwidth reduction", fmt.Sprintf("%.1fx", ratio), "5x")
	t.AddRowF("Optimized MCM vs largest buildable monolithic (128 SM)",
		pct(geomeanSpeedup(rs["mono128"], rs["opt"], suite)), "+45.5%")
	t.AddRowF("Gap to unbuildable 256-SM monolithic",
		gap(geomeanSpeedup(rs["mono256"], rs["opt"], suite)), "<10%")
	t.AddRowF("Optimized MCM vs equally equipped multi-GPU",
		pct(geomeanSpeedup(rs["multiOpt"], rs["opt"], suite)), "+26.8%")
	return t, nil
}

// --- shared helpers for the per-app figure families ---

type namedCfg struct {
	name string
	cfg  *Config
}

func namedConfig(name string, cfg *Config) namedCfg {
	c := cfg.Clone()
	c.Name = name
	return namedCfg{name: name, cfg: c}
}

// l15Only16 is the 16 MB remote-only L1.5 on the otherwise-baseline MCM.
func l15Only16() *Config {
	return config.WithL15(config.BaselineMCM(), 16*config.MB, config.AllocRemoteOnly)
}

// l15DS16 adds distributed scheduling to l15Only16.
func l15DS16() *Config {
	c := l15Only16()
	c.Scheduler = config.SchedDistributed
	return c
}

// speedupTable runs base + the given systems and reports per-M-intensive-app
// speedups plus category geomeans.
func speedupTable(o Options, title, note string, systems ...namedCfg) (*Table, error) {
	suite := o.suite()
	base, err := o.runSuite(config.BaselineMCM(), suite)
	if err != nil {
		return nil, err
	}
	results := make([]resultSet, len(systems))
	for i, nc := range systems {
		if results[i], err = o.runSuite(nc.cfg, suite); err != nil {
			return nil, err
		}
	}
	headers := []string{"Workload"}
	for _, nc := range systems {
		headers = append(headers, nc.name)
	}
	t := report.New(title, headers...)
	for _, s := range o.mIntensive() {
		row := []interface{}{s.Name}
		for i := range systems {
			row = append(row, speedupCell(base, results[i], s.Name))
		}
		t.AddRowF(row...)
	}
	for _, cat := range []workload.Category{MemoryIntensive, ComputeIntensive, LimitedParallelism} {
		row := []interface{}{cat.String() + " geomean"}
		for i := range systems {
			row = append(row, report.Cell(geomeanSpeedup(base, results[i], byCategory(suite, cat))))
		}
		t.AddRowF(row...)
	}
	t.Note = note
	return t, nil
}

// interGPMTable runs base + the given systems and reports per-app and
// per-category inter-GPM bandwidth.
func interGPMTable(o Options, title, note string, systems ...namedCfg) (*Table, error) {
	suite := o.suite()
	base, err := o.runSuite(config.BaselineMCM(), suite)
	if err != nil {
		return nil, err
	}
	results := make([]resultSet, len(systems))
	for i, nc := range systems {
		if results[i], err = o.runSuite(nc.cfg, suite); err != nil {
			return nil, err
		}
	}
	headers := []string{"Workload", "Baseline MCM-GPU"}
	for _, nc := range systems {
		headers = append(headers, nc.name)
	}
	t := report.New(title, headers...)
	for _, s := range o.mIntensive() {
		row := []interface{}{s.Name, gbpsCell(base, s.Name)}
		for i := range systems {
			row = append(row, gbpsCell(results[i], s.Name))
		}
		t.AddRowF(row...)
	}
	for _, cat := range []workload.Category{MemoryIntensive, ComputeIntensive, LimitedParallelism} {
		specs := byCategory(suite, cat)
		row := []interface{}{cat.String() + " mean", meanInterGPM(base, specs)}
		for i := range systems {
			row = append(row, meanInterGPM(results[i], specs))
		}
		t.AddRowF(row...)
	}
	t.Note = note
	return t, nil
}

// tiledRegionMCM is the optimized MCM re-paired for dense 2-D workloads: the
// tiled 2-D CTA scheduler plus region-aware placement on the same transistor
// budget as DS+FT (8 MB L2 halves + 8 MB remote-only L1.5).
func tiledRegionMCM() *Config { return config.TiledRegionMCM() }

// Tension is the extension study behind the dense workload families: the
// paper's optimized design (distributed scheduling + first-touch, Figure 16)
// wins on the 48-application suite but loses to the centralized/interleave
// baseline on tiled GEMM and flash attention, whose 2-D panel reuse
// first-touch placement breaks — the linear init sweep binds panel pages to
// modules that match neither the panels' consumers nor the chunk owners,
// while the skewed k-loop defeats the remote-only L1.5 and the halved L2
// thrashes on the panel working set. Pairing the tiled 2-D scheduler with
// region-aware placement restores the 2-D locality and recovers the loss
// without giving back the suite win.
//
// Suite rows run at o.Scale like every other experiment. The dense rows
// always run full size: the tension is a cache-capacity effect (panel
// windows against the halved L2), and scaling the footprint down dissolves
// exactly the effect under study. Dense runs are single-digit seconds.
func Tension(o Options) (*Table, error) {
	suite := o.suite()
	systems := []namedCfg{
		namedConfig("DS+FT (optimized)", config.OptimizedMCM()),
		namedConfig("Tiled2D+region-aware", tiledRegionMCM()),
	}
	base, err := o.runSuite(config.BaselineMCM(), suite)
	if err != nil {
		return nil, err
	}
	results := make([]resultSet, len(systems))
	for i, nc := range systems {
		if results[i], err = o.runSuite(nc.cfg, suite); err != nil {
			return nil, err
		}
	}

	full := o
	full.Scale = 1
	dense := workload.Dense()
	dBase, err := full.runSuite(config.BaselineMCM(), dense)
	if err != nil {
		return nil, err
	}
	dResults := make([]resultSet, len(systems))
	for i, nc := range systems {
		if dResults[i], err = full.runSuite(nc.cfg, dense); err != nil {
			return nil, err
		}
	}

	t := report.New("Extension: scheduler/placement tension on dense 2-D workloads",
		"Workload", "Baseline MCM-GPU", "DS+FT (optimized)", "Tiled2D+region-aware")
	for _, cat := range []workload.Category{MemoryIntensive, ComputeIntensive, LimitedParallelism} {
		row := []interface{}{cat.String() + " geomean (suite)", 1.0}
		for i := range systems {
			row = append(row, report.Cell(geomeanSpeedup(base, results[i], byCategory(suite, cat))))
		}
		t.AddRowF(row...)
	}
	row := []interface{}{"Suite geomean (48 apps)", 1.0}
	for i := range systems {
		row = append(row, report.Cell(geomeanSpeedup(base, results[i], suite)))
	}
	t.AddRowF(row...)
	for _, s := range dense {
		row := []interface{}{s.Name + " (full size)", 1.0}
		for i := range systems {
			row = append(row, speedupCell(dBase, dResults[i], s.Name))
		}
		t.AddRowF(row...)
		row = []interface{}{s.Name + " inter-GPM GB/s", gbpsCell(dBase, s.Name)}
		for i := range systems {
			row = append(row, gbpsCell(dResults[i], s.Name))
		}
		t.AddRowF(row...)
	}
	t.Note = "speedup over baseline MCM-GPU; suite rows at -scale, dense rows always full size"
	return t, nil
}

// Experiments maps experiment IDs to their drivers, for the CLI and tests.
// Static tables are wrapped lazily: building the map (e.g. to list IDs) does
// no table construction; a driver builds its table only when invoked.
func Experiments() map[string]func(Options) (*Table, error) {
	static := func(build func() *Table) func(Options) (*Table, error) {
		return func(Options) (*Table, error) { return build(), nil }
	}
	return map[string]func(Options) (*Table, error){
		"table1":   static(Table1),
		"table2":   static(Table2),
		"table3":   static(Table3),
		"table4":   static(Table4),
		"analytic": static(AnalyticTable),
		"fig2":     Fig2,
		"fig4":     Fig4,
		"fig6":     Fig6,
		"fig7":     Fig7,
		"fig9":     Fig9,
		"fig10":    Fig10,
		"fig13":    Fig13,
		"fig14":    Fig14,
		"fig15":    Fig15,
		"fig16":    Fig16,
		"fig17":    Fig17,
		"headline": Headline,
		"tension":  Tension,
		"gpmscale": GPMScale,
		"energy":   EnergyTable,
	}
}
