package cli

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcmgpu/internal/faultinject"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestOpenArmsRunner(t *testing.T) {
	t.Setenv(faultinject.EnvVar, "corrupt@100:NN")
	dir := t.TempDir()
	f := parse(t, "-max-events", "7", "-audit", "-timeout", "1m",
		"-store", filepath.Join(dir, "rs"), "-metrics", filepath.Join(dir, "m.csv"), "-metrics-interval", "64")
	var stderr bytes.Buffer
	r, closeRun, err := f.Open("prog", &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !r.FailFast || r.Limits.MaxEvents != 7 || !r.Limits.Audit || r.Limits.WallDeadline.IsZero() {
		t.Errorf("limits not armed: FailFast=%v %+v", r.FailFast, r.Limits)
	}
	if !r.Fault.Matches("NN") || r.Store == nil {
		t.Errorf("fault plan or store not armed: %+v store=%v", r.Fault, r.Store)
	}
	if r.Metrics == nil || !r.Metrics.CSV || r.Metrics.Interval != 64 {
		t.Errorf("metrics not armed: %+v", r.Metrics)
	}
	if err := closeRun(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stderr.String(), "prog: store: 0 hits") {
		t.Errorf("close did not report the store: %q", stderr.String())
	}
}

func TestOpenRejectsBadFaultPlan(t *testing.T) {
	t.Setenv(faultinject.EnvVar, "nonsense@1")
	if _, _, err := parse(t).Open("prog", &bytes.Buffer{}); err == nil {
		t.Fatal("malformed MCMGPU_FAULT accepted")
	}
}

// A store that cannot be opened degrades to compute with a warning.
func TestOpenDegradesUnopenableStore(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	r, closeRun, err := parse(t, "-keep-going", "-store", filepath.Join(blocker, "rs")).Open("prog", &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Store != nil || r.FailFast {
		t.Errorf("store = %v, FailFast = %v; want no store, collect-errors", r.Store, r.FailFast)
	}
	if !strings.Contains(stderr.String(), "prog: store unavailable, computing without it") {
		t.Errorf("no degrade warning: %q", stderr.String())
	}
	if err := closeRun(); err != nil {
		t.Fatal(err)
	}
}
