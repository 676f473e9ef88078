package runner

import (
	"bytes"
	"reflect"
	"testing"

	"mcmgpu/internal/config"
	"mcmgpu/internal/faultinject"
	"mcmgpu/internal/runstore"
)

func mustStore(t *testing.T, dir string, opts ...runstore.Option) *runstore.Store {
	t.Helper()
	s, err := runstore.Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreWarmRunZeroSimulations is the durability contract end to end: a
// second process (modeled by a fresh store handle and a fresh memo cache
// over the same directory) re-running an identical job list performs zero
// simulations — every cell is a verified store hit — and returns results
// deep-equal to the cold run's.
func TestStoreWarmRunZeroSimulations(t *testing.T) {
	jobs := testJobs(t)
	dir := t.TempDir()

	cold := &Runner{Workers: 4, Cache: NewCache(), Store: mustStore(t, dir)}
	want, err := cold.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Store.Stats(); st.Puts != uint64(len(jobs)) || st.Hits != 0 {
		t.Fatalf("cold run store stats: %+v, want %d puts and 0 hits", st, len(jobs))
	}

	warm := &Runner{Workers: 4, Cache: NewCache(), Store: mustStore(t, dir)}
	got, err := warm.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("warm-store results differ from cold compute")
	}
	st := warm.Store.Stats()
	if st.Hits != uint64(len(jobs)) || st.Misses != 0 || st.Puts != 0 {
		t.Fatalf("warm run was not all store hits: %+v", st)
	}
}

// TestStoreMetricsReplayByteIdentical asserts a warm-store run with metrics
// armed emits a sample stream byte-identical to the cold run's: store hits
// replay the persisted stream instead of staying silent the way in-process
// cache hits do.
func TestStoreMetricsReplayByteIdentical(t *testing.T) {
	jobs := testJobs(t)
	dir := t.TempDir()

	var coldStream bytes.Buffer
	cold := &Runner{
		Workers: 2, Cache: NewCache(), Store: mustStore(t, dir),
		Metrics: &MetricsOptions{W: &coldStream},
	}
	want, err := cold.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if coldStream.Len() == 0 {
		t.Fatal("cold run emitted no metrics (vacuous test)")
	}

	var warmStream bytes.Buffer
	warm := &Runner{
		Workers: 2, Cache: NewCache(), Store: mustStore(t, dir),
		Metrics: &MetricsOptions{W: &warmStream},
	}
	got, err := warm.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("warm results differ from cold")
	}
	if !bytes.Equal(warmStream.Bytes(), coldStream.Bytes()) {
		t.Fatalf("warm metrics stream is not byte-identical to cold compute:\ncold %d bytes, warm %d bytes",
			coldStream.Len(), warmStream.Len())
	}
	if st := warm.Store.Stats(); st.Hits == 0 || st.Puts != 0 {
		t.Fatalf("warm metrics run did not serve from the store: %+v", st)
	}
}

// TestStoreEIODegradesToCompute proves the degrade-to-compute path: with
// every store operation failing (store-eio from op 0), the run still
// succeeds with correct results — store failures cost durability, never
// correctness.
func TestStoreEIODegradesToCompute(t *testing.T) {
	jobs := testJobs(t)
	want, err := (&Runner{Workers: 1}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}

	// Populate the directory healthily so the sick handle's Gets reach the
	// blob I/O the eio plan intercepts (an empty store would just miss).
	dir := t.TempDir()
	if _, err := (&Runner{Workers: 1, Cache: NewCache(), Store: mustStore(t, dir)}).Run(jobs); err != nil {
		t.Fatal(err)
	}

	sick := mustStore(t, dir, runstore.WithFault(faultinject.Plan{Kind: faultinject.StoreEIO}))
	r := &Runner{Workers: 4, Cache: NewCache(), Store: sick}
	got, err := r.Run(jobs)
	if err != nil {
		t.Fatalf("run failed on a sick store: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("degraded run results differ from plain compute")
	}
	st := sick.Stats()
	if st.GetErrors == 0 || st.PutErrors == 0 {
		t.Fatalf("eio plan never fired (vacuous test): %+v", st)
	}
	if st.Hits != 0 {
		t.Fatalf("sick store served a result through injected EIO: %+v", st)
	}
}

// TestStoreCorruptBlobRecomputes proves a store poisoned by bit flips is
// never believed: the warm run detects the damage, quarantines it, and
// recomputes — results identical to plain compute, zero corrupted reads.
func TestStoreCorruptBlobRecomputes(t *testing.T) {
	jobs := testJobs(t)[:3]
	dir := t.TempDir()
	want, err := (&Runner{Workers: 1}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}

	// Populate the store through a corrupting writer.
	bad := mustStore(t, dir, runstore.WithFault(faultinject.Plan{Kind: faultinject.StoreCorruptBlob}))
	if _, err := (&Runner{Workers: 1, Cache: NewCache(), Store: bad}).Run(jobs); err != nil {
		t.Fatal(err)
	}

	// A fresh process over the damaged directory must recompute everything.
	clean := mustStore(t, dir)
	r := &Runner{Workers: 2, Cache: NewCache(), Store: clean}
	got, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("corrupted store leaked into results")
	}
	if st := clean.Stats(); st.Corrupt == 0 {
		t.Fatalf("corruption never detected (vacuous test): %+v", st)
	}
}

// TestStoreNeverPersistsErrors mirrors the memo cache's transient-eviction
// parity on disk: failed jobs — deterministic or otherwise — must leave no
// store entry, so no future process can be served a stale failure.
func TestStoreNeverPersistsErrors(t *testing.T) {
	bad := config.BaselineMCM()
	bad.Name = "bad-config"
	bad.Modules = 0 // fails Validate inside core.New
	store := mustStore(t, t.TempDir())
	r := &Runner{Workers: 1, Cache: NewCache(), Store: store}
	if _, err := r.Run([]Job{{Config: bad, Spec: mustSpec(t, "CFD"), Scale: 0.05}}); err == nil {
		t.Fatal("bad config did not fail")
	}
	if n := store.Len(); n != 0 {
		t.Fatalf("failed job persisted %d store entries", n)
	}
}

// TestStoreKeySharedAcrossSlots pins the key split: the store key is slot
// independent (every occurrence of one simulation maps to one entry) while
// sampled jobs still get per-slot memo keys.
func TestStoreKeySharedAcrossSlots(t *testing.T) {
	job := Job{Config: config.BaselineMCM(), Spec: mustSpec(t, "CFD"), Scale: 0.05}
	plain := &Runner{}
	if plain.jobKey(0, job) != plain.StoreKey(job) {
		t.Fatal("unsampled memo key diverged from store key")
	}
	sampled := &Runner{Metrics: &MetricsOptions{W: &bytes.Buffer{}}}
	if sampled.StoreKey(job) == plain.StoreKey(job) {
		t.Fatal("sampling interval missing from store key")
	}
	if sampled.jobKey(0, job) == sampled.jobKey(1, job) {
		t.Fatal("sampled slots coalesced onto one memo key")
	}
	if k := sampled.jobKey(3, job); k != sampled.StoreKey(job)+"|job:3" {
		t.Fatalf("memo key %q is not store key + slot suffix", k)
	}
}

// RunOne over a job list writes the stream one Run over the same list
// writes (CSV header once), cold and replayed from a warm store, and hands
// back a metrics summary only for runs it actually sampled.
func TestRunOneMatchesRun(t *testing.T) {
	jobs := testJobs(t)[:4]
	var want bytes.Buffer
	wantRes, err := (&Runner{Workers: 2, Metrics: &MetricsOptions{W: &want, CSV: true}}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, pass := range []string{"cold", "warm"} {
		var got bytes.Buffer
		r := &Runner{Store: mustStore(t, dir), Metrics: &MetricsOptions{W: &got, CSV: true}}
		for i, j := range jobs {
			res, sum, err := r.RunOne(j)
			if err != nil {
				t.Fatalf("%s job %d: %v", pass, i, err)
			}
			if !reflect.DeepEqual(res, wantRes[i]) {
				t.Errorf("%s job %d: result differs from Run", pass, i)
			}
			if sampled := sum != nil; sampled != (pass == "cold") {
				t.Errorf("%s job %d: summary returned = %v", pass, i, sampled)
			}
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s RunOne stream differs from Run's (%d vs %d bytes)", pass, got.Len(), want.Len())
		}
	}
}
