package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mcmgpu/internal/faultinject"
	"mcmgpu/internal/workload"
)

// mcmsim runs the command in-process and returns its exit code and output.
func mcmsim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// mustRun fails the test unless the command exits 0.
func mustRun(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	code, stdout, stderr := mcmsim(t, args...)
	if code != 0 {
		t.Fatalf("mcmsim %v exited %d:\n%s", args, code, stderr)
	}
	return stdout, stderr
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The -json result is the same bytes whether it was simulated without a
// store, simulated into a cold store, or served from a warm one.
func TestJSONIdenticalAcrossStore(t *testing.T) {
	args := []string{"-workload", "Stream", "-scale", "0.1", "-json"}
	plain, _ := mustRun(t, args...)
	store := filepath.Join(t.TempDir(), "rs")
	cold, coldErr := mustRun(t, append(args, "-store", store)...)
	warm, warmErr := mustRun(t, append(args, "-store", store)...)
	if cold != plain {
		t.Errorf("cold-store -json differs from the storeless run:\n%s\nvs\n%s", cold, plain)
	}
	if warm != plain {
		t.Errorf("warm-store -json differs from the storeless run:\n%s\nvs\n%s", warm, plain)
	}
	if !strings.Contains(coldErr, "store: 0 hits, 1 misses, 1 puts") {
		t.Errorf("cold run did not persist its result: %s", coldErr)
	}
	if !strings.Contains(warmErr, "store: 1 hits, 0 misses, 0 puts") {
		t.Errorf("warm run did not hit the store (vacuous): %s", warmErr)
	}
}

// Sampling only observes, and -json output stays pure JSON: the summary
// tables a sampled run prints are for the text form only.
func TestJSONUnperturbedByMetrics(t *testing.T) {
	args := []string{"-workload", "Stream", "-scale", "0.1", "-json"}
	plain, _ := mustRun(t, args...)
	m := filepath.Join(t.TempDir(), "m.ndjson")
	sampled, _ := mustRun(t, append(args, "-metrics", m, "-metrics-interval", "4096")...)
	if sampled != plain {
		t.Errorf("-metrics changed the -json output:\n%s\nvs\n%s", sampled, plain)
	}
	if readFile(t, m) == "" {
		t.Error("no samples streamed")
	}
}

// A warm store replays each run's stored sample stream, so -metrics writes
// the same bytes cold and warm, and both match the storeless stream. The
// per-run summary tables print once per simulated run, identically with and
// without a store; a warm run skips them and says so.
func TestMetricsReplayedFromStore(t *testing.T) {
	n := len(workload.Limited())
	for _, ext := range []string{".ndjson", ".csv"} {
		t.Run(ext[1:], func(t *testing.T) {
			dir := t.TempDir()
			store := filepath.Join(dir, "rs")
			args := []string{"-workload", "limited", "-scale", "0.05", "-v"}
			plainOut, _ := mustRun(t, append(args, "-metrics", filepath.Join(dir, "plain"+ext))...)
			coldOut, _ := mustRun(t, append(args, "-store", store, "-metrics", filepath.Join(dir, "cold"+ext))...)
			warmOut, warmErr := mustRun(t, append(args, "-store", store, "-metrics", filepath.Join(dir, "warm"+ext))...)

			plain := readFile(t, filepath.Join(dir, "plain"+ext))
			if plain == "" {
				t.Fatal("no samples streamed")
			}
			if got := readFile(t, filepath.Join(dir, "cold"+ext)); got != plain {
				t.Errorf("cold-store stream differs from the storeless stream (%d vs %d bytes)", len(got), len(plain))
			}
			if got := readFile(t, filepath.Join(dir, "warm"+ext)); got != plain {
				t.Errorf("warm-store stream differs from the storeless stream (%d vs %d bytes)", len(got), len(plain))
			}
			if ext == ".csv" && strings.Count(plain, "config,workload,") != 1 {
				t.Errorf("CSV stream has %d header rows, want 1", strings.Count(plain, "config,workload,"))
			}

			if coldOut != plainOut {
				t.Errorf("cold-store stdout differs from the storeless stdout")
			}
			if got := strings.Count(plainOut, "DRAM bandwidth timeline"); got != n {
				t.Errorf("%d summary timelines for %d runs", got, n)
			}
			if strings.Contains(warmOut, "DRAM bandwidth timeline") {
				t.Errorf("warm run printed summary tables for runs it did not sample")
			}
			if got := strings.Count(warmErr, "served from store; summary tables skipped"); got != n {
				t.Errorf("warm run explained %d skipped summaries, want %d:\n%s", got, n, warmErr)
			}
			// The result lines themselves are unchanged by the store.
			if strip(warmOut) != strip(plainOut) {
				t.Errorf("warm-store result lines differ from the storeless ones")
			}
		})
	}
}

// strip keeps only a run's result lines: the one-line summary and its -v
// detail, dropping summary tables.
func strip(out string) string {
	var keep []string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, " cycles, IPC ") || strings.HasPrefix(l, "  instrs=") ||
			strings.HasPrefix(l, "  L1=") || strings.HasPrefix(l, "  energy(pJ)") {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, "\n")
}

// -keep-going runs every workload past a failed one and exits 1 at the end;
// without it the first failure stops the invocation.
func TestKeepGoingExitsOneAfterFault(t *testing.T) {
	t.Setenv(faultinject.EnvVar, "corrupt@100:NN")
	n := len(workload.Limited())
	args := []string{"-workload", "limited", "-scale", "0.05"}

	code, out, errOut := mcmsim(t, append(args, "-keep-going")...)
	if code != 1 {
		t.Fatalf("-keep-going with a faulted cell exited %d, want 1", code)
	}
	if got := strings.Count(out, " cycles, IPC "); got != n-1 {
		t.Errorf("-keep-going printed %d results, want %d", got, n-1)
	}
	if !strings.Contains(errOut, "NN on mcm-baseline") || !strings.Contains(errOut, "1 of 15 workloads failed") {
		t.Errorf("failure not reported:\n%s", errOut)
	}

	code, out, _ = mcmsim(t, args...)
	if code != 1 {
		t.Fatalf("faulted cell exited %d, want 1", code)
	}
	if strings.Contains(out, "/NN:") {
		t.Errorf("faulted cell printed a result")
	}
	if got := strings.Count(out, " cycles, IPC "); got >= n-1 {
		t.Errorf("run continued past the failure without -keep-going (%d results)", got)
	}
}

// -list prints the systems sorted, so its output is stable across runs.
func TestListSorted(t *testing.T) {
	first, _ := mustRun(t, "-list")
	for i := 0; i < 5; i++ {
		if again, _ := mustRun(t, "-list"); again != first {
			t.Fatalf("-list output changed between runs:\n%s\nvs\n%s", first, again)
		}
	}
	sys := strings.SplitN(strings.TrimPrefix(first, "systems:\n"), "workloads:", 2)[0]
	names := strings.Fields(sys)
	if len(names) != len(systems) || !sort.StringsAreSorted(names) {
		t.Errorf("systems not listed sorted: %v", names)
	}
}

// -workload accepts every selection keyword cmd/sweep accepts, "dense"
// included.
func TestDenseSelection(t *testing.T) {
	out, _ := mustRun(t, "-workload", "dense", "-scale", "0.01")
	if got := strings.Count(out, " cycles, IPC "); got != len(workload.Dense()) {
		t.Errorf("-workload dense ran %d workloads, want %d:\n%s", got, len(workload.Dense()), out)
	}
}
