package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mcmgpu/internal/analytic"
	"mcmgpu/internal/config"
	"mcmgpu/internal/runner"
	"mcmgpu/internal/workload"
)

// The dse-scan grid: the closed-form slice (every suite app on each of
// dseClosedForm DS+FT systems) and the census slice (both dense workloads
// on dseCensusFT DS+FT systems and on dseCensusRegion tiled+region-aware
// systems) each take about half an op.
const (
	dseClosedForm   = 1280
	dseCensusFT     = 88
	dseCensusRegion = 7
)

// dseL15MB are the L1.5 capacities grid points take.
var dseL15MB = []int{0, 4, 8, 16}

// dse is the dse-scan workload: one op is a phase-1 scan, runner.Estimates
// with no estimate cache (the path of sweep -nocache -analytic-only), over
// the whole grid.
type dse struct {
	// slices are the closed-form, first-touch census and region census
	// job lists; jobs is their concatenation.
	slices [3][]runner.Job
	jobs   []runner.Job
	cfgs   []*config.Config
	ref    []analytic.Estimate // the warm-up op's estimates
}

var dseSlices = [3]string{"closed-form", "census-ft", "census-region"}

func newDSE(e env) (bench, error) {
	rng := rand.New(rand.NewSource(e.seed))
	k := 0
	point := func(tiled bool) (*config.Config, error) {
		cfg := dsePoint(k, e.seed, rng, tiled)
		k++
		return cfg, cfg.Validate()
	}
	d := &dse{}
	for s, n := range [3]int{dseClosedForm, dseCensusFT, dseCensusRegion} {
		specs := workload.Suite()
		if s > 0 {
			specs = workload.Dense()
		}
		for i := 0; i < n; i++ {
			cfg, err := point(s == 2)
			if err != nil {
				return nil, err
			}
			d.cfgs = append(d.cfgs, cfg)
			for _, spec := range specs {
				d.slices[s] = append(d.slices[s], runner.Job{Config: cfg, Spec: spec, Scale: 1})
			}
		}
		d.jobs = append(d.jobs, d.slices[s]...)
	}
	return d, nil
}

// dsePoint builds grid point k: the sweep's grid construction (an MCM with
// a given link bandwidth and remote-only L1.5 capacity) under DS+FT, or
// under tiled scheduling with region-aware placement. Seed 0 walks a fixed
// lattice; other seeds draw the link bandwidth (log-uniform over 384 GB/s
// to 12 TB/s) and the L1.5 capacity.
func dsePoint(k int, seed int64, rng *rand.Rand, tiled bool) *config.Config {
	var link float64
	var l15 int
	if seed == 0 {
		link = 384 * math.Pow(32, float64(k/len(dseL15MB)%512)/511)
		l15 = dseL15MB[k%len(dseL15MB)]
	} else {
		link = 384 * math.Pow(32, rng.Float64())
		l15 = dseL15MB[rng.Intn(len(dseL15MB))]
	}
	cfg := config.MCMWithLink(link)
	if l15 > 0 {
		keep := cfg.Link.GBps
		cfg = config.WithL15(cfg, l15*config.MB, config.AllocRemoteOnly)
		cfg.Link.GBps = keep
	}
	if tiled {
		cfg.Scheduler = config.SchedTiled2D
		cfg.Placement = config.PlaceRegionAware
	} else {
		cfg.Scheduler = config.SchedDistributed
		cfg.Placement = config.PlaceFirstTouch
	}
	cfg.Name = fmt.Sprintf("dse-%d", k)
	return cfg
}

func (d *dse) setup() (error, error) {
	_, err := d.op(0, nil)
	return err, nil
}

func (d *dse) unit() int   { return 1 }
func (d *dse) minOps() int { return 2 }
func (d *dse) close()      {}

func (d *dse) peakRSSMB(opPeaks []float64) (float64, error) { return median(opPeaks), nil }

func (d *dse) op(_ int, tr *tracer) (float64, error) {
	r := &runner.Runner{FailFast: true}
	if tr != nil {
		// Outside the op's time: estimator construction alone, timed as
		// one batch over the whole grid.
		tr.begin("analytic.NewEstimator")
		for _, cfg := range d.cfgs {
			if _, err := analytic.NewEstimator(cfg); err != nil {
				tr.end()
				return 0, err
			}
		}
		tr.end()
	}
	var ests []*analytic.Estimate
	start := time.Now()
	if tr == nil {
		var err error
		if ests, err = r.Estimates(d.jobs); err != nil {
			return 0, err
		}
	} else {
		for s, jobs := range d.slices {
			tr.begin("runner.Estimates " + dseSlices[s])
			part, err := r.Estimates(jobs)
			tr.end()
			if err != nil {
				return 0, err
			}
			ests = append(ests, part...)
		}
	}
	seconds := time.Since(start).Seconds()
	if d.ref == nil {
		if err := checkEstimates(ests, nil); err != nil {
			return seconds, err
		}
		d.ref = make([]analytic.Estimate, len(ests))
		for i, e := range ests {
			d.ref[i] = *e
		}
		return seconds, nil
	}
	return seconds, checkEstimates(ests, d.ref)
}

// checkEstimates requires every estimate to be finite, its cycle,
// instruction, memop and IPC predictions positive, and, when ref is
// non-nil, every estimate equal field by field to ref's.
func checkEstimates(ests []*analytic.Estimate, ref []analytic.Estimate) error {
	if ref != nil && len(ests) != len(ref) {
		return fmt.Errorf("%d estimates, reference has %d", len(ests), len(ref))
	}
	for i, e := range ests {
		if e == nil {
			return fmt.Errorf("estimate %d missing", i)
		}
		for _, v := range []float64{e.Cycles, e.WarpInstrs, e.MemOps, e.IPC} {
			if !(v > 0) || math.IsInf(v, 0) {
				return fmt.Errorf("%s on %s: non-positive or non-finite prediction %v", e.Workload, e.Config, v)
			}
		}
		for _, v := range []float64{e.L1HitRate, e.L15HitRate, e.L2HitRate, e.LocalFraction, e.RemoteFraction,
			e.InterModuleBytes, e.InterModuleGBps, e.DRAMBytes, e.DRAMDemandGBps} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s on %s: non-finite prediction %v", e.Workload, e.Config, v)
			}
		}
		if ref != nil && *e != ref[i] {
			return fmt.Errorf("%s on %s: estimate differs from the first op's", e.Workload, e.Config)
		}
	}
	return nil
}

func (d *dse) layers(tr *tracer, m map[string]float64) {
	per := func(s int, scale float64) float64 {
		sum, n := tr.total("runner.Estimates " + dseSlices[s])
		return ratio(sum.Seconds()*scale, float64(n*len(d.slices[s])))
	}
	m["analytic.new_estimator_us"] = median(tr.seconds("analytic.NewEstimator")) * 1e6 / float64(len(d.cfgs))
	m["analytic.closed_form_us"] = per(0, 1e6)
	m["analytic.census_ft_ms"] = per(1, 1e3)
	m["analytic.census_region_ms"] = per(2, 1e3)
}
