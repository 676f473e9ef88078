package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// experiments runs the command in-process and fails the test unless it
// exits 0.
func experiments(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("experiments %v exited %d:\n%s", args, code, errb.String())
	}
	return out.String(), errb.String()
}

// The CSV tables are the same bytes sequentially, in parallel, and when
// every cell is served from a warm durable store. -nocache keeps the
// process-wide memo cache from answering the later runs.
func TestCSVIdenticalAcrossWorkersAndStore(t *testing.T) {
	base := []string{"-exp", "fig4", "-scale", "0.05", "-max", "1", "-csv", "-nocache"}
	seq, _ := experiments(t, append(base, "-j", "1")...)
	if !strings.Contains(seq, "Link BW,") {
		t.Fatalf("no fig4 table in output:\n%s", seq)
	}
	par, _ := experiments(t, append(base, "-j", "4")...)
	if par != seq {
		t.Errorf("-j 4 output differs from -j 1:\n%s\nvs\n%s", par, seq)
	}

	store := filepath.Join(t.TempDir(), "rs")
	cold, _ := experiments(t, append(base, "-j", "4", "-store", store)...)
	warm, warmErr := experiments(t, append(base, "-j", "4", "-store", store)...)
	if cold != seq || warm != seq {
		t.Errorf("store changed the tables:\ncold:\n%s\nwarm:\n%s\nwant:\n%s", cold, warm, seq)
	}
	if !strings.Contains(warmErr, " 0 misses, 0 puts") || strings.Contains(warmErr, "store: 0 hits") {
		t.Errorf("warm run did not come entirely from the store: %s", warmErr)
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "nope"}, &out, &errb); code != 1 {
		t.Fatalf("unknown -exp exited %d, want 1", code)
	}
	if !strings.Contains(errb.String(), `unknown id "nope"`) {
		t.Errorf("stderr = %q", errb.String())
	}
}
