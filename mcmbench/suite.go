package main

import (
	"fmt"
	"sort"
	"time"

	"mcmgpu"
	"mcmgpu/internal/workload"
)

// suiteScale and suitePerCategory are the golden options: the reduced
// scale and suite trim testdata/golden.json was produced at.
const (
	suiteScale       = 0.05
	suitePerCategory = 1
)

// suiteReported are the experiment drivers whose traced pass time is a
// per-layer metric: the ones that simulate new cells, not only memo hits.
var suiteReported = []string{"fig2", "fig4", "fig6", "fig10", "fig13", "fig16", "fig17", "energy", "gpmscale"}

// suite is the suite-golden workload: one op is a pass of every experiment
// driver except tension at the golden options, sequential, with the run
// cache reset first. It always runs the registry inputs: the seed does not
// apply.
type suite struct {
	drivers map[string]func(mcmgpu.Options) (*mcmgpu.Table, error)
	ids     []string
	want    map[string]goldenTable
	// memopsPerSim is the mean warp memory ops of one simulated cell. Every
	// driver runs the whole trimmed suite on each system and a cell's memop
	// count does not depend on the system, so a pass of n simulations
	// covers n*memopsPerSim memops.
	memopsPerSim float64
	nSpecs       int
}

func newSuite(e env) (bench, error) {
	tabs, err := loadGolden(e.root)
	if err != nil {
		return nil, err
	}
	s := &suite{drivers: mcmgpu.Experiments(), want: map[string]goldenTable{}}
	for id := range s.drivers {
		if id != "tension" {
			s.ids = append(s.ids, id)
		}
	}
	sort.Strings(s.ids)
	for _, t := range tabs {
		s.want[t.ID] = t
	}
	for _, id := range s.ids {
		if _, ok := s.want[id]; !ok {
			return nil, fmt.Errorf("golden snapshot has no %s table", id)
		}
	}
	var memops float64
	for _, c := range []workload.Category{workload.MemoryIntensive, workload.ComputeIntensive, workload.LimitedParallelism} {
		for _, spec := range workload.ByCategory(c)[:suitePerCategory] {
			memops += float64(spec.Scaled(suiteScale).TotalMemOps())
			s.nSpecs++
		}
	}
	s.memopsPerSim = memops / float64(s.nSpecs)
	return s, nil
}

func (s *suite) setup() (error, error) {
	_, err := s.op(0, nil)
	return err, nil
}

func (s *suite) unit() int   { return 1 }
func (s *suite) minOps() int { return 2 }
func (s *suite) close()      {}

func (s *suite) peakRSSMB(opPeaks []float64) (float64, error) { return median(opPeaks), nil }

func (s *suite) op(_ int, tr *tracer) (float64, error) {
	opts := mcmgpu.Options{Scale: suiteScale, MaxPerCategory: suitePerCategory, Workers: 1}
	mcmgpu.ResetRunCache()
	tabs := make([]*mcmgpu.Table, len(s.ids))
	errs := make([]error, len(s.ids))
	pass := func() {
		for k, id := range s.ids {
			tr.begin("experiments." + id)
			tabs[k], errs[k] = s.drivers[id](opts)
			tr.end()
		}
	}
	start := time.Now()
	if tr != nil {
		mallocs, allocBytes := memDelta(pass)
		tr.add("core.mallocs", float64(mallocs))
		tr.add("core.alloc_bytes", float64(allocBytes))
	} else {
		pass()
	}
	seconds := time.Since(start).Seconds()
	st := mcmgpu.RunCacheStats()
	tr.add("runner.passes", 1)
	tr.add("runner.sims", float64(st.Simulations()))
	tr.add("runner.hits", float64(st.Hits))
	for k, id := range s.ids {
		err := errs[k]
		if err == nil {
			err = checkTable(id, tabs[k], s.want[id])
		}
		if err != nil {
			return seconds, fmt.Errorf("%s: %w", id, err)
		}
	}
	if st.Simulations()%uint64(s.nSpecs) != 0 {
		return seconds, fmt.Errorf("%d simulations is not a whole number of %d-workload suites", st.Simulations(), s.nSpecs)
	}
	return seconds, nil
}

// checkTable compares one experiment table with its golden snapshot.
func checkTable(id string, got *mcmgpu.Table, want goldenTable) error {
	g := goldenTable{ID: id, Title: got.Title, Note: got.Note, Head: got.Headers, Rows: got.Rows}
	switch {
	case g.Title != want.Title:
		return fmt.Errorf("title %q, golden %q", g.Title, want.Title)
	case g.Note != want.Note:
		return fmt.Errorf("note %q, golden %q", g.Note, want.Note)
	case fmt.Sprint(g.Head) != fmt.Sprint(want.Head):
		return fmt.Errorf("headers %q, golden %q", g.Head, want.Head)
	case len(g.Rows) != len(want.Rows):
		return fmt.Errorf("%d rows, golden %d", len(g.Rows), len(want.Rows))
	}
	for r := range g.Rows {
		if len(g.Rows[r]) != len(want.Rows[r]) {
			return fmt.Errorf("row %d has %d cells, golden %d", r, len(g.Rows[r]), len(want.Rows[r]))
		}
		for c := range g.Rows[r] {
			if g.Rows[r][c] != want.Rows[r][c] {
				return fmt.Errorf("row %d column %d: %q, golden %q", r, c, g.Rows[r][c], want.Rows[r][c])
			}
		}
	}
	return nil
}

func (s *suite) layers(tr *tracer, m map[string]float64) {
	k := tr.counts
	passes := k["runner.passes"]
	simsPerPass := ratio(k["runner.sims"], passes)
	m["runner.sims_per_pass"] = simsPerPass
	m["runner.memo_hits_per_pass"] = ratio(k["runner.hits"], passes)
	for _, id := range suiteReported {
		m["experiments."+id+"_ms"] = tr.meanMS("experiments." + id)
	}
	m["core.allocs_per_memop"] = ratio(k["core.mallocs"], passes*simsPerPass*s.memopsPerSim)
	m["core.alloc_bytes_per_memop"] = ratio(k["core.alloc_bytes"], passes*simsPerPass*s.memopsPerSim)
	// Machine construction and runs happen inside the runner, out of reach
	// of spans from this package, so their times come from the profile,
	// which covers the untraced passes too. Every pass simulates the same
	// cells.
	sims := float64(tr.profiledUnits) * simsPerPass
	run := tr.cumNS("mcmgpu/internal/core.(*Machine).RunWith")
	m["core.new_ms"] = ratio(tr.cumNS("mcmgpu/internal/core.New"), sims) / 1e6
	m["core.run_ms"] = ratio(run, sims) / 1e6
	m["core.host_ns_per_memop"] = ratio(run, sims*s.memopsPerSim)
}
