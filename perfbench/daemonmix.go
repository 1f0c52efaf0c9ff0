package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"filaments/internal/cluster/daemon"
	"filaments/internal/obs"
)

// mixKinds are daemon-mix's job kinds: jacobi's read faults,
// matmul's write-invalidate traffic, and fork/join quadrature.
var mixKinds = []daemon.JobSpec{
	{App: "jacobi", N: 64, Iters: 200},
	{App: "matmul", N: 64},
	{App: "quadrature", N: 14},
}

const (
	// mixRounds is how many of each kind one batch (a daemon-mix trial)
	// holds; every batch has the same composition, in a seeded order.
	mixRounds = 4
	// mixClients is the number of closed-loop clients: each submits its
	// next job only after the previous one's verified result arrives.
	mixClients = 2
	// jobWait is the long-poll a client waits for a job; a job still not
	// done after it counts as failed.
	jobWait = "60s"
)

// daemonSystem is an in-process Coordinator serving its Handler on a
// loopback HTTP listener, and the HTTP client that drives it.
type daemonSystem struct {
	co     *daemon.Coordinator
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	rng    *rand.Rand
}

func setupDaemon(seed int64) (*daemonSystem, error) {
	co, err := daemon.NewCoordinator(daemon.Config{Nodes: nodes})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		co.Close() //nolint:errcheck // unwinding a failed setup
		return nil, err
	}
	d := &daemonSystem{
		co:     co,
		srv:    &http.Server{Handler: co.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: mixClients}},
		rng:    rand.New(rand.NewSource(seed)),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	// The daemon is up when its API answers and reports every compute
	// node alive.
	var cv struct{ Alive int }
	if err := d.get("/cluster", &cv); err != nil || cv.Alive != nodes {
		d.close()
		if err == nil {
			err = fmt.Errorf("daemon reports %d of %d nodes alive", cv.Alive, nodes)
		}
		return nil, err
	}
	return d, nil
}

func (d *daemonSystem) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx) //nolint:errcheck // teardown after measuring
	<-d.served
	d.client.CloseIdleConnections()
	d.co.Close() //nolint:errcheck // teardown after measuring
}

func (d *daemonSystem) get(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	return decodeResponse(resp, http.StatusOK, v)
}

func (d *daemonSystem) post(path string, body any, v any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	return decodeResponse(resp, http.StatusAccepted, v)
}

func decodeResponse(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// jobView is the part of the daemon's job JSON the benchmark reads.
type jobView struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
	Error     string     `json:"error"`
	Result    *struct {
		OK        bool         `json:"ok"`
		Output    string       `json:"output"`
		ElapsedMS float64      `json:"elapsed_ms"`
		Metrics   []obs.Sample `json:"metrics"`
	} `json:"result"`
}

type jobOutcome struct {
	latMS float64
	view  jobView
	err   error
}

// job submits spec, waits for its result, and verifies it: the job must
// reach done with a result the daemon checked against the sequential
// reference (bitwise for jacobi and matmul, 1e-9 relative for
// quadrature).
func (d *daemonSystem) job(sc scope, spec daemon.JobSpec) jobOutcome {
	t0 := time.Now()
	var v jobView
	end := sc.begin("http.submit")
	err := d.post("/jobs", spec, &v)
	end()
	if err != nil {
		return jobOutcome{err: fmt.Errorf("submit %s: %w", spec.App, err)}
	}
	end = sc.begin("http.wait")
	err = d.get("/jobs/"+v.ID+"?wait="+jobWait, &v)
	end()
	lat := time.Since(t0)
	if err != nil {
		return jobOutcome{err: fmt.Errorf("%s %s: %w", v.ID, spec.App, err)}
	}
	defer sc.begin("verify")()
	switch {
	case v.State != "done":
		return jobOutcome{err: fmt.Errorf("%s %s: state %q after %s wait: %s", v.ID, spec.App, v.State, jobWait, v.Error)}
	case v.Result == nil || !v.Result.OK:
		out := ""
		if v.Result != nil {
			out = v.Result.Output
		}
		return jobOutcome{err: fmt.Errorf("%s %s: result not verified: %s", v.ID, spec.App, out)}
	case v.Started == nil || v.Finished == nil:
		return jobOutcome{err: fmt.Errorf("%s %s: done without start and finish times", v.ID, spec.App)}
	}
	return jobOutcome{latMS: ms(lat), view: v}
}

// batch runs specs through clients closed-loop clients and reports the
// batch as one trial: run_s is its wall time, and every job adds one
// latency and one value of each daemon layer metric.
func (d *daemonSystem) batch(sc scope, specs []daemon.JobSpec, clients int) trialResult {
	netBefore, err := d.netCounters()
	if err != nil {
		return failedTrial(len(specs), err)
	}
	outs := make([]jobOutcome, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				jsc := scope{tr: sc.tr, trial: (sc.trial+1)*1000 + i, parent: sc.parent}
				jsc, end := jsc.child("job " + specs[i].App)
				outs[i] = d.job(jsc, specs[i])
				end()
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(t0)
	netAfter, err := d.netCounters()
	if err != nil {
		return failedTrial(len(specs), err)
	}

	res := trialResult{ops: len(specs), runS: elapsed.Seconds(), counters: make(map[string]float64), perJob: make(map[string][]float64)}
	for _, name := range nodeCounterNames {
		res.counters[name] = 0
	}
	for _, o := range outs {
		if o.err != nil {
			res.errs = append(res.errs, o.err)
			continue
		}
		v := o.view
		res.latMS = append(res.latMS, o.latMS)
		for k, c := range runCounters(v.Result.Metrics) {
			res.counters[k] += c
		}
		queued := ms(v.Started.Sub(v.Submitted))
		inSystem := ms(v.Finished.Sub(v.Submitted))
		res.perJob["daemon.queue_wait_ms"] = append(res.perJob["daemon.queue_wait_ms"], queued)
		res.perJob["daemon.job_run_ms"] = append(res.perJob["daemon.job_run_ms"], v.Result.ElapsedMS)
		res.perJob["daemon.job_overhead_ms"] = append(res.perJob["daemon.job_overhead_ms"], inSystem-queued-v.Result.ElapsedMS)
		res.perJob["daemon.api_ms"] = append(res.perJob["daemon.api_ms"], o.latMS-inSystem)
	}
	// Jobs overlap, so each job's endpoint deltas also count the other
	// job's traffic; the batch's wire counters come from the daemon's
	// /metrics instead.
	for k, v := range netAfter {
		res.counters[k] = v - netBefore[k]
	}
	return res
}

// netCounters reads the endpoint counters from the daemon's /metrics.
func (d *daemonSystem) netCounters() (map[string]float64, error) {
	var body struct{ Metrics []obs.Sample }
	if err := d.get("/metrics", &body); err != nil {
		return nil, err
	}
	c := map[string]float64{
		"net.requests_sent": 0, "net.retransmits": 0, "net.dup_suppressed": 0,
		"net.cache_hits": 0, "net.bytes_sent": 0,
	}
	for _, s := range body.Metrics {
		if _, ok := c[s.Name]; ok {
			c[s.Name] = float64(s.Value)
		}
	}
	return c, nil
}

// mixSystem is daemon-mix's system: each trial is one batch of
// mixRounds jobs of every kind, shuffled by the seeded generator.
type mixSystem struct{ *daemonSystem }

func (m mixSystem) trial(sc scope) trialResult {
	specs := make([]daemon.JobSpec, 0, mixRounds*len(mixKinds))
	for r := 0; r < mixRounds; r++ {
		specs = append(specs, mixKinds...)
	}
	m.rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return m.batch(sc, specs, mixClients)
}

func daemonWorkload(seed int64) workload {
	return workload{
		name: "daemon-mix",
		setup: func() (system, error) {
			d, err := setupDaemon(seed)
			if err != nil {
				return nil, err
			}
			return mixSystem{d}, nil
		},
	}
}
