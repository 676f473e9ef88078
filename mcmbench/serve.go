package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/runner"
	"mcmgpu/internal/runstore"
	"mcmgpu/internal/runstore/client"
	"mcmgpu/internal/workload"
)

const (
	// serveScale is the scale of the manifest's 48 jobs.
	serveScale = 0.05
	// serveRSSTrips is the round trip after which the server's peak RSS is
	// read. mcmserve keeps every batch record, so its RSS grows with each
	// trip; reading it after a fixed count keeps runs comparable.
	serveRSSTrips = 400
)

// serveSystem is mcm-optimized at seed 0. Other seeds draw the link
// bandwidth and the L1.5 capacity of an otherwise identical DS+FT system.
func serveSystem(seed int64) *config.Config {
	if seed == 0 {
		return config.OptimizedMCM()
	}
	rng := rand.New(rand.NewSource(seed))
	links := []float64{384, 768, 1536, 3072, 6144}
	l15 := []int{4, 8, 16}
	cfg := config.WithL15(config.BaselineMCM(), l15[rng.Intn(len(l15))]*config.MB, config.AllocRemoteOnly)
	cfg.Link.GBps = links[rng.Intn(len(links))]
	cfg.Scheduler = config.SchedDistributed
	cfg.Placement = config.PlaceFirstTouch
	cfg.Name = fmt.Sprintf("serve-variant-%d", seed)
	return cfg
}

// serve is the serve-warm workload: one op is client.Run of the 48-job
// manifest — the 48-app suite on mcm-optimized, or at a non-zero seed on a
// drawn variant of it — against an mcmserve child whose store already
// holds every job, over one keep-alive connection.
type serve struct {
	manifest client.Manifest
	jobs     []runner.Job
	keys     []string
	// results are the jobs simulated locally by the set-up; want is each
	// as JSON, the reference every served result must equal.
	results []*core.Result
	want    [][]byte

	store  *runstore.Store
	cmd    *exec.Cmd
	exited chan error
	c      *client.Client
	ctx    context.Context

	putNS   float64 // the fill's Store.Put calls
	startKB float64 // child VmRSS after the warm-up trip
	// peakKB and rssKB are the child's VmHWM and VmRSS after serveRSSTrips
	// trips.
	peakKB, rssKB float64
}

func newServe(e env) (bench, error) {
	if e.mcmserve == "" {
		return nil, errors.New("serve-warm needs -mcmserve")
	}
	var sys bytes.Buffer
	if err := serveSystem(e.seed).WriteJSON(&sys); err != nil {
		return nil, err
	}
	cfg, err := config.ReadJSON(bytes.NewReader(sys.Bytes()))
	if err != nil {
		return nil, err
	}
	s := &serve{ctx: context.Background()}
	for _, spec := range workload.Suite() {
		s.manifest.Jobs = append(s.manifest.Jobs, client.JobRequest{
			System: json.RawMessage(sys.Bytes()), Workload: spec.Name, Scale: serveScale,
		})
		j := runner.Job{Config: cfg, Spec: spec, Scale: serveScale}
		s.jobs = append(s.jobs, j)
		s.keys = append(s.keys, (&runner.Runner{}).StoreKey(j))
	}
	dir, err := os.MkdirTemp(e.scratch, "store-")
	if err != nil {
		return nil, err
	}
	if s.store, err = runstore.Open(dir); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s.cmd = exec.Command(e.mcmserve, "-store", dir, "-addr", "127.0.0.1:"+port, "-j", "1")
	s.cmd.Env = cleanEnv()
	// The server dies with this process even if it is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.c = &client.Client{
		BaseURL: "http://127.0.0.1:" + port,
		HTTP:    &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}},
	}
	return s, nil
}

// cleanEnv is the environment without the MCMGPU_ switches (fault plans,
// forced auditing) that would change the server's job identities, and with
// the server on one P like this process: a round trip hands the one op
// back and forth between the two, and idle Ps spinning for work in either
// process only compete with it for the host's CPUs.
func cleanEnv() []string {
	out := []string{"GOMAXPROCS=1"}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "MCMGPU_") && !strings.HasPrefix(kv, "GOMAXPROCS=") {
			out = append(out, kv)
		}
	}
	return out
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// setup fills the store — simulates every job locally, as a runner with a
// store does, and persists each result — then starts the server, waits
// until it is ready and runs the checked warm-up trip.
func (s *serve) setup() (error, error) {
	var err error
	if s.results, err = (&runner.Runner{Workers: 1, FailFast: true}).Run(s.jobs); err != nil {
		return nil, fmt.Errorf("local simulation: %w", err)
	}
	t0 := time.Now()
	for i, k := range s.keys {
		if err := s.store.Put(k, s.results[i], nil); err != nil {
			return nil, err
		}
	}
	s.putNS = float64(time.Since(t0).Nanoseconds())
	for _, r := range s.results {
		js, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		s.want = append(s.want, js)
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	s.exited = make(chan error, 1)
	go func() { s.exited <- s.cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for s.c.Readyz(s.ctx) != nil {
		select {
		case err := <-s.exited:
			s.exited <- err
			return nil, fmt.Errorf("mcmserve exited before it was ready: %v", err)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, errors.New("mcmserve not ready after 30s")
		}
	}
	_, checkErr := s.op(0, nil)
	kb, err := procStatusKB(s.pid(), "VmRSS")
	s.startKB = kb
	return checkErr, err
}

func (s *serve) unit() int   { return 1 }
func (s *serve) minOps() int { return serveRSSTrips }

func (s *serve) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// peakRSSMB is the server's peak RSS after serveRSSTrips trips; this
// process's per-op peaks do not describe the process under test.
func (s *serve) peakRSSMB([]float64) (float64, error) {
	if s.peakKB == 0 {
		kb, err := procStatusKB(s.pid(), "VmHWM")
		if err != nil {
			return 0, err
		}
		s.peakKB = kb
	}
	return s.peakKB / 1024, nil
}

// close drains the server (SIGTERM), waits for it to exit, and kills it if
// it has not within ten seconds.
func (s *serve) close() {
	if s.exited == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an exited child is fine
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill() // Wait below reports the outcome
		<-s.exited
	}
	s.exited = nil
}

func (s *serve) op(i int, tr *tracer) (float64, error) {
	var (
		results []*core.Result
		jobs    []client.JobStatus
		err     error
	)
	start := time.Now()
	if tr == nil {
		results, jobs, err = s.c.Run(s.ctx, s.manifest)
	} else {
		results, jobs, err = s.tracedRun(tr)
	}
	seconds := time.Since(start).Seconds()
	if err == nil && tr != nil {
		err = s.timeStoreGets(tr)
	}
	if err != nil {
		return 0, err
	}
	if i+1 == serveRSSTrips {
		if s.peakKB, err = procStatusKB(s.pid(), "VmHWM"); err != nil {
			return 0, err
		}
		if s.rssKB, err = procStatusKB(s.pid(), "VmRSS"); err != nil {
			return 0, err
		}
	}
	return seconds, checkServed(results, jobs, s.want)
}

// tracedRun is client.Run's sequence — submit, wait (one batch poll when
// every job is already done), fetch each result — with a span per call.
func (s *serve) tracedRun(tr *tracer) ([]*core.Result, []client.JobStatus, error) {
	tr.begin("client.Submit")
	bs, err := s.c.Submit(s.ctx, s.manifest)
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	tr.begin("client.Wait")
	bs, err = s.c.Wait(s.ctx, bs.ID)
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	results := make([]*core.Result, len(bs.Jobs))
	for i, js := range bs.Jobs {
		tr.begin("client.Result")
		results[i], err = s.c.Result(s.ctx, js.ID)
		tr.end()
		if err != nil {
			return nil, nil, err
		}
	}
	return results, bs.Jobs, nil
}

// timeStoreGets reads every job's store entry through this process's own
// handle on the server's store, as one span.
func (s *serve) timeStoreGets(tr *tracer) error {
	tr.begin("runstore.Get")
	defer tr.end()
	for _, k := range s.keys {
		if _, _, ok, err := s.store.Get(k); err != nil || !ok {
			return fmt.Errorf("store get: ok=%v err=%v", ok, err)
		}
	}
	return nil
}

// checkServed requires every job to be done from the store and every
// served result to be byte-identical, as JSON, to the local simulation.
func checkServed(results []*core.Result, jobs []client.JobStatus, want [][]byte) error {
	if len(results) != len(want) || len(jobs) != len(want) {
		return fmt.Errorf("%d results and %d statuses for %d jobs", len(results), len(jobs), len(want))
	}
	for i, js := range jobs {
		if js.State != client.StateDone || js.Source != client.SourceStore {
			return fmt.Errorf("job %s: state %q source %q, want done from the store", js.ID, js.State, js.Source)
		}
		got, err := json.Marshal(results[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want[i]) {
			return fmt.Errorf("job %s (%s): served result differs from the local simulation", js.ID, js.Workload)
		}
	}
	return nil
}

func (s *serve) layers(tr *tracer, m map[string]float64) {
	m["client.submit_ms"] = tr.meanMS("client.Submit")
	m["client.batch_ms"] = tr.meanMS("client.Wait")
	m["client.result_ms"] = tr.meanMS("client.Result")
	m["client.trip_ms_p90"] = quantile(tr.plainUnits, 0.9) * 1e3
	sum, n := tr.total("runstore.Get")
	m["runstore.get_ms"] = ratio(sum.Seconds()*1e3, float64(n*len(s.keys)))
	m["runstore.put_ms"] = s.putNS / 1e6 / float64(len(s.keys))
	if st := s.store.Stats(); st.Entries > 0 {
		m["runstore.entry_bytes"] = float64(st.Bytes) / float64(st.Entries)
	}
	m["mcmserve.rss_growth_mb"] = (s.rssKB - s.startKB) / 1024
}
