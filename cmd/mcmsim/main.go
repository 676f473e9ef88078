// Command mcmsim runs one workload on one simulated GPU system and prints
// its statistics. It is the low-level entry point; cmd/experiments
// regenerates the paper's tables and figures.
//
// Usage:
//
//	mcmsim -system mcm-baseline -workload Stream
//	mcmsim -system mcm-optimized -workload all -scale 0.5
//	mcmsim -system mcm-tiled-region -workload GEMM2D-4K
//	mcmsim -config machine.json -workload CoMD -json
//	mcmsim -store /var/lib/mcmgpu -workload all   # reuse the durable run store
//	mcmsim -dump-config mcm-optimized      # write a preset as JSON
//	mcmsim -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"mcmgpu/internal/cli"
	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/prof"
	"mcmgpu/internal/report"
	"mcmgpu/internal/runner"
	"mcmgpu/internal/trace"
	"mcmgpu/internal/workload"
)

// systems maps CLI names to configuration presets.
var systems = map[string]func() *config.Config{
	"mcm-baseline":       config.BaselineMCM,
	"mcm-optimized":      config.OptimizedMCM,
	"mcm-optimized-16mb": config.OptimizedMCM16,
	"mcm-tiled-region":   config.TiledRegionMCM,
	"mono-128":           config.LargestBuildableMonolithic,
	"mono-256":           config.UnbuildableMonolithic,
	"multi-gpu":          config.MultiGPUBaseline,
	"multi-gpu-opt":      config.MultiGPUOptimized,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with an exit code instead of os.Exit calls, so every defer —
// in particular the gzip'd -metrics writer's Close, whose error is how a
// full disk announces a truncated stream — runs on every exit path.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("mcmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		system    = fs.String("system", "mcm-baseline", "system preset to simulate")
		app       = fs.String("workload", "Stream", "workload name, a category (m-intensive, c-intensive, limited), 'dense', or 'all'")
		list      = fs.Bool("list", false, "list systems and workloads, then exit")
		linkBW    = fs.Float64("link", 0, "override inter-GPM link bandwidth in GB/s")
		v         = fs.Bool("v", false, "verbose per-run detail")
		char      = fs.Bool("characterize", false, "characterize the selected workloads' access streams instead of simulating")
		cfgF      = fs.String("config", "", "load the machine from a JSON file instead of -system")
		dump      = fs.String("dump-config", "", "print the named system preset as JSON and exit")
		asJSON    = fs.Bool("json", false, "emit results as JSON")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write an allocation profile to this file on exit")
		maxCycles = fs.Uint64("max-cycles", 0, "per-run simulated-cycle budget (0 = none)")
	)
	rf := cli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return cli.ParseExit(err)
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "mcmsim:", err)
		return 1
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "mcmsim:", err)
			code = 1
		}
	}()

	if *dump != "" {
		mk, ok := systems[*dump]
		if !ok {
			return fail(fmt.Errorf("unknown system %q", *dump))
		}
		if err := mk().WriteJSON(stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	if *list {
		names := make([]string, 0, len(systems))
		for name := range systems {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintln(stdout, "systems:")
		for _, name := range names {
			fmt.Fprintf(stdout, "  %s\n", name)
		}
		fmt.Fprintln(stdout, "workloads:")
		for _, n := range workload.Names() {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		return 0
	}

	var cfg *config.Config
	if *cfgF != "" {
		if cfg, err = config.LoadFile(*cfgF); err != nil {
			return fail(err)
		}
	} else {
		mk, ok := systems[*system]
		if !ok {
			return fail(fmt.Errorf("unknown system %q", *system))
		}
		cfg = mk()
	}
	if *linkBW > 0 {
		cfg.Link.GBps = *linkBW
		cfg.Name = fmt.Sprintf("%s@%.0fGB/s", cfg.Name, *linkBW)
	}

	specs, err := workload.Select(*app)
	if err != nil {
		return fail(err)
	}

	if *char {
		if err := characterize(stdout, specs, rf.Scale); err != nil {
			return fail(err)
		}
		return 0
	}

	// The runner applies the limits, fault plan, store and metrics exactly
	// as it does for cmd/sweep, cmd/experiments and mcmserve, so all of
	// them share warm store cells. Each run samples through its own
	// recorder; a store hit replays the stored stream instead.
	r, closeRun, err := rf.Open("mcmsim", stderr)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := closeRun(); err != nil {
			fmt.Fprintln(stderr, "mcmsim:", err)
			code = 1
		}
	}()
	r.Limits.MaxCycles = *maxCycles

	failed := 0
	for _, spec := range specs {
		res, summary, err := r.RunOne(runner.Job{Config: cfg, Spec: spec, Scale: rf.Scale})
		if err != nil {
			fmt.Fprintln(stderr, "mcmsim:", err)
			if rf.KeepGoing {
				failed++
				continue
			}
			return 1
		}
		if err := printResult(stdout, res, *asJSON, *v); err != nil {
			return fail(err)
		}
		switch {
		case summary == nil && r.Metrics != nil:
			fmt.Fprintf(stderr, "mcmsim: %s on %s: served from store; summary tables skipped (stream replayed, sampling not re-run)\n",
				spec.Name, cfg.Name)
		case summary != nil && !*asJSON:
			for _, tbl := range summary.Tables() {
				fmt.Fprintln(stdout)
				if err := tbl.WriteText(stdout); err != nil {
					return fail(err)
				}
			}
		}
		warnClamped(stderr, res, spec.Name)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "mcmsim: %d of %d workloads failed\n", failed, len(specs))
		return 1
	}
	return 0
}

// printResult renders one run the way mcmsim always has: JSON with -json,
// one-line summary plus optional -v detail otherwise.
func printResult(w io.Writer, res *core.Result, asJSON, verbose bool) error {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Fprintln(w, res)
	if verbose {
		fmt.Fprintf(w, "  instrs=%d memops=%d reads=%d writes=%d\n",
			res.WarpInstrs, res.MemOps, res.LineReads, res.LineWrites)
		// Hit rates render as a dash when a level was never accessed
		// (disabled L1.5, all-hit upper level), not as a fake 0%.
		fmt.Fprintf(w, "  L1=%s L1.5=%s L2=%s dramBytes=%d dramUtil avg=%.2f peak=%.2f linkUtil=%.2f pages=%d\n",
			rate(res.L1HitRate, res.L1Accesses > 0),
			rate(res.L15HitRate, res.L15Accesses > 0),
			rate(res.L2HitRate, res.L2Accesses > 0),
			res.DRAMBytes, res.AvgDRAMUtil, res.PeakDRAMUtil, res.MaxLinkUtil, res.MappedPages)
		e := res.EnergyPJ
		fmt.Fprintf(w, "  energy(pJ): chip=%.0f package=%.0f board=%.0f dram=%.0f total=%.0f\n",
			e.Chip, e.Package, e.Board, e.DRAM, e.Total)
	}
	return nil
}

func warnClamped(stderr io.Writer, res *core.Result, name string) {
	if res.ClampedEvents > 0 {
		fmt.Fprintf(stderr, "mcmsim: warning: %s clamped %d event(s) to the current cycle\n",
			name, res.ClampedEvents)
	}
}

// rate renders a hit rate, or report.Dash when the level was never accessed
// — a disabled L1.5 shows "—" instead of a fake 0.000.
func rate(v float64, valid bool) string {
	if !valid {
		return report.Dash
	}
	return fmt.Sprintf("%.3f", v)
}

// characterize records one kernel launch of each workload and prints its
// access-stream statistics.
func characterize(w io.Writer, specs []*workload.Spec, scale float64) error {
	t := report.New("Workload characterization (one kernel launch)",
		"Workload", "Category", "Pattern", "Ops", "Unique lines", "Footprint (MB)", "Write frac", "Reuse")
	for _, spec := range specs {
		run := spec
		if scale != 1.0 {
			run = spec.Scaled(scale)
		}
		tr, err := trace.Record(run)
		if err != nil {
			return err
		}
		s := tr.Summarize()
		t.AddRowF(spec.Name, spec.Category.String(), spec.Pattern.String(),
			s.Ops, s.UniqueLines, s.FootprintMB, s.WriteFraction, s.ReuseFactor)
	}
	return t.WriteText(w)
}
