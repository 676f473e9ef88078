package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/workload"
)

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 50, End: 90},
		{Name: "c", Parent: 2, Start: 60, End: 70},
	}}
	tr.selfTimes()
	for i, want := range []time.Duration{30, 30, 30, 10} {
		if got := tr.spans[i].Self; got != want {
			t.Errorf("span %s self %v, want %v", tr.spans[i].Name, got, want)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"mcmgpu/internal/engine.(*Sim).pop", "mcmgpu/internal/engine.(*Sim).RunUntil"}, "engine_queue"},
		{[]string{"mcmgpu/internal/engine.(*Resource).Reserve", "mcmgpu/internal/core.(*loadCtx).Dispatch"}, "engine_resource"},
		{[]string{"runtime.memmove", "mcmgpu/internal/cache.(*Cache).Access"}, "cache"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "mcmgpu/internal/core.New"}, "malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "mcmgpu/internal/vm.(*AddressMap).Bind"}, "gc"},
		{[]string{"encoding/json.(*encodeState).marshal"}, "other"},
		{[]string{"mcmgpu/internal/energy.(*Meter).Add"}, "other"},
		{[]string{"runtime.futex", "runtime.notesleep"}, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("%v: bucket %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestProfileBuckets profiles a real simulation and checks the decoder
// finds the engine and cache in it and that the shares sum to 100.
func TestProfileBuckets(t *testing.T) {
	tr := newTracer()
	buf, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		m, err := core.New(config.OptimizedMCM())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(workload.Suite()[0].Scaled(0.05)); err != nil {
			t.Fatal(err)
		}
	}
	shares, err := tr.stopProfile(buf)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("bucket shares sum to %v", sum)
	}
	if shares["engine_queue"] == 0 || shares["cache"] == 0 {
		t.Errorf("no engine or cache samples in a simulation profile: %v", shares)
	}
	if tr.cumNS("mcmgpu/internal/core.(*Machine).RunWith") == 0 {
		t.Error("no samples under Machine.RunWith")
	}
}

// TestRunPrintsResultLine runs the benchmark end to end on dse-scan, timed
// and traced, and checks the last line's shape.
func TestRunPrintsResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-workload", "dse-scan", "-seed", "3", "-seconds", "0.5", "-trace", trace,
			"-root", testRoot, "-out", t.TempDir()}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 3 || len(res.Metrics) != len(defs) {
			t.Fatalf("trace %s: %+v", trace, res)
		}
		for _, d := range defs {
			if _, ok := res.Metrics[d.name]; !ok {
				t.Errorf("trace %s: missing %s", trace, d.name)
			}
		}
	}
}

func TestRunRejectsMissingReference(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", "dense-cell", "-seconds", "1", "-root", t.TempDir(), "-out", t.TempDir()}, &out, &errOut)
	if code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d with output %q", code, out.String())
	}
}
