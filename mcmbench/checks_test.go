package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mcmgpu"
	"mcmgpu/internal/analytic"
	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/runner"
	"mcmgpu/internal/runstore/client"
	"mcmgpu/internal/workload"
)

// The tests run from this directory; the repository root is its parent.
const testRoot = ".."

// perturb changes the last digit of a formatted number.
func perturb(s string) string {
	last := s[len(s)-1]
	if last == '9' {
		return s[:len(s)-1] + "8"
	}
	return s[:len(s)-1] + string(last+1)
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(testRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: code has %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the code", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}

// TestDenseChecksFire simulates one full-size cell (well under a second)
// and checks its inter-GPM bandwidth against the golden row, then against
// a perturbed one; the round check runs on results built to reproduce the
// golden speedups.
func TestDenseChecksFire(t *testing.T) {
	tabs, err := loadGolden(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	want, err := denseExpectations(tabs)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Dense()[0]
	m, err := core.New(config.BaselineMCM())
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	gbps := want[spec.Name].gbps[0]
	if err := checkDenseGBps(res, gbps); err != nil {
		t.Fatalf("golden expectation: %v", err)
	}
	if err := checkDenseGBps(res, perturb(gbps)); err == nil {
		t.Fatal("inter-GPM check passed a perturbed expectation")
	}

	var cells []denseCell
	var round []*core.Result
	for _, s := range workload.Dense() {
		for sys := range denseSystems {
			sp, err := strconv.ParseFloat(want[s.Name].speedup[sys], 64)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, denseCell{spec: s, sys: sys})
			round = append(round, &core.Result{Workload: s.Name, Cycles: uint64(math.Round(1e6 / sp))})
		}
	}
	if err := checkDenseRound(cells, round, want); err != nil {
		t.Fatalf("golden speedups: %v", err)
	}
	bad := map[string]denseWant{}
	for k, v := range want {
		bad[k] = v
	}
	w := bad[spec.Name]
	w.speedup[2] = perturb(w.speedup[2])
	bad[spec.Name] = w
	if err := checkDenseRound(cells, round, bad); err == nil {
		t.Fatal("speedup check passed a perturbed expectation")
	}
}

func TestSuiteCheckFires(t *testing.T) {
	tabs, err := loadGolden(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]goldenTable{}
	for _, g := range tabs {
		golden[g.ID] = g
	}
	opts := mcmgpu.Options{Scale: suiteScale, MaxPerCategory: suitePerCategory, Workers: 1}
	for _, id := range []string{"table3", "gpmscale"} {
		tab, err := mcmgpu.Experiments()[id](opts)
		if err != nil {
			t.Fatal(err)
		}
		want := golden[id]
		if err := checkTable(id, tab, want); err != nil {
			t.Fatalf("%s: golden table: %v", id, err)
		}
		rows := make([][]string, len(want.Rows))
		for i := range want.Rows {
			rows[i] = append([]string(nil), want.Rows[i]...)
		}
		last := len(rows) - 1
		rows[last][len(rows[last])-1] = perturb(rows[last][len(rows[last])-1])
		bad := want
		bad.Rows = rows
		if err := checkTable(id, tab, bad); err == nil {
			t.Fatalf("%s: table check passed a perturbed cell", id)
		}
		bad = want
		bad.Title += "!"
		if err := checkTable(id, tab, bad); err == nil {
			t.Fatalf("%s: table check passed a perturbed title", id)
		}
	}
}

// TestSuiteMemopsPerSim pins the assumption suite-golden's memop count
// rests on: a cell's memop count depends on the workload only, not on the
// system it runs on.
func TestSuiteMemopsPerSim(t *testing.T) {
	b, err := newSuite(env{root: testRoot})
	if err != nil {
		t.Fatal(err)
	}
	s := b.(*suite)
	var sum float64
	for _, c := range []workload.Category{workload.MemoryIntensive, workload.ComputeIntensive, workload.LimitedParallelism} {
		spec := workload.ByCategory(c)[0]
		for _, cfg := range []*config.Config{config.BaselineMCM(), config.MultiGPUBaseline(), config.MustMonolithic(32)} {
			res, err := mcmgpu.RunScaled(cfg, spec, suiteScale)
			if err != nil {
				t.Fatal(err)
			}
			if want := spec.Scaled(suiteScale).TotalMemOps(); res.MemOps != want {
				t.Errorf("%s on %s: %d memops, spec says %d", spec.Name, cfg.Name, res.MemOps, want)
			}
		}
		sum += float64(spec.Scaled(suiteScale).TotalMemOps())
	}
	if got := s.memopsPerSim * float64(s.nSpecs); got != sum {
		t.Errorf("memopsPerSim*%d = %v, want %v", s.nSpecs, got, sum)
	}
}

func TestDSECheckFires(t *testing.T) {
	var jobs []runner.Job
	for _, spec := range workload.Suite()[:4] {
		jobs = append(jobs, runner.Job{Config: config.OptimizedMCM(), Spec: spec, Scale: 1})
	}
	ests, err := (&runner.Runner{}).Estimates(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEstimates(ests, nil); err != nil {
		t.Fatal(err)
	}
	ref := make([]analytic.Estimate, len(ests))
	for i, e := range ests {
		ref[i] = *e
	}
	if err := checkEstimates(ests, ref); err != nil {
		t.Fatal(err)
	}
	ref[2].Cycles = math.Nextafter(ref[2].Cycles, math.Inf(1))
	if err := checkEstimates(ests, ref); err == nil {
		t.Fatal("estimate check passed a perturbed reference")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		e := *ests[1]
		e.Cycles = bad
		if err := checkEstimates([]*analytic.Estimate{&e}, nil); err == nil {
			t.Fatalf("estimate check passed Cycles = %v", bad)
		}
	}
	e := *ests[1]
	e.L2HitRate = math.NaN()
	if err := checkEstimates([]*analytic.Estimate{&e}, nil); err == nil {
		t.Fatal("estimate check passed a NaN hit rate")
	}
}

func TestServeCheckFires(t *testing.T) {
	res := []*core.Result{{Config: "c", Workload: "a", Cycles: 10}, {Config: "c", Workload: "b", Cycles: 20}}
	var want [][]byte
	jobs := make([]client.JobStatus, len(res))
	for i, r := range res {
		js, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, js)
		jobs[i] = client.JobStatus{ID: strconv.Itoa(i), State: client.StateDone, Source: client.SourceStore}
	}
	if err := checkServed(res, jobs, want); err != nil {
		t.Fatal(err)
	}
	bad := append([][]byte(nil), want...)
	bad[1] = []byte(strings.Replace(string(bad[1]), `"Cycles":20`, `"Cycles":21`, 1))
	if err := checkServed(res, jobs, bad); err == nil {
		t.Fatal("serve check passed a perturbed reference")
	}
	computed := append([]client.JobStatus(nil), jobs...)
	computed[0].Source = client.SourceCompute
	if err := checkServed(res, computed, want); err == nil {
		t.Fatal("serve check passed a computed (not stored) job")
	}
	if err := checkServed(res[:1], jobs, want); err == nil {
		t.Fatal("serve check passed a missing result")
	}
}
