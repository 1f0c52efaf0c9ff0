package main

import (
	"fmt"
	"time"

	"filaments"
	"filaments/internal/apps/jacobi"
	"filaments/internal/apps/quadrature"
	"filaments/internal/obs"
)

// nodes is the cluster size of every workload: the daemon's default and
// the size the ROADMAP figures use.
const nodes = 4

// Problem sizes. Each trial is short enough that a run holds dozens of
// trials, so medians and quartiles rest on many samples.
const (
	jacobiN     = 64
	jacobiIters = 300
	barrierK    = 3000
	quadTol     = 1e-5
)

// appSystem is a live 4-node UDPCluster, built once; each trial is one
// StartRun on it. trialBody runs the app on the started run, verifies
// its output, and returns the run's report.
type appSystem struct {
	cl        *filaments.UDPCluster
	rc        filaments.UDPRunConfig
	trialBody func(run *filaments.UDPRun, sc scope) (*filaments.UDPReport, error)
}

func newAppSystem(rc filaments.UDPRunConfig, body func(*filaments.UDPRun, scope) (*filaments.UDPReport, error)) (system, error) {
	cl, err := filaments.NewUDPCluster(filaments.UDPConfig{Nodes: nodes})
	if err != nil {
		return nil, err
	}
	return &appSystem{cl: cl, rc: rc, trialBody: body}, nil
}

func (a *appSystem) close() { a.cl.Close() } //nolint:errcheck // teardown after measuring

func (a *appSystem) trial(sc scope) trialResult {
	before := endpointCounters(a.cl)
	t0 := time.Now()
	end := sc.begin("StartRun")
	run, err := a.cl.StartRun(a.rc)
	end()
	if err != nil {
		return failedTrial(1, fmt.Errorf("StartRun: %w", err))
	}
	rep, err := a.trialBody(run, sc)
	if err == nil {
		err = checkQuiet(run.Outstanding())
	}
	lat := time.Since(t0)
	if err != nil {
		return failedTrial(1, err)
	}
	c := runCounters(rep.Metrics)
	for k, v := range endpointCounters(a.cl) {
		c[k] = v - before[k]
	}
	return trialResult{
		ops:      1,
		runS:     rep.Elapsed.Seconds(),
		latMS:    []float64{ms(lat)},
		counters: c,
	}
}

// endpointCounters sums the cluster's udptrans.Endpoint.Stats; a trial
// takes the delta across itself.
func endpointCounters(cl *filaments.UDPCluster) map[string]float64 {
	c := make(map[string]float64)
	for i := 0; i < cl.Nodes(); i++ {
		s := cl.Endpoint(i).Stats()
		c["net.requests_sent"] += float64(s.RequestsSent)
		c["net.retransmits"] += float64(s.Retransmits)
		c["net.dup_suppressed"] += float64(s.DupSuppressed)
		c["net.cache_hits"] += float64(s.CacheHits)
		c["net.bytes_sent"] += float64(s.BytesSent)
	}
	return c
}

// nodeCounterNames are the node-registry counters the layer pass reads
// from UDPReport.Metrics (and from each daemon job's metrics).
var nodeCounterNames = []string{
	"msg.sent",
	"dsm.read_faults", "dsm.write_faults", "dsm.served", "dsm.fault_wait_ns",
	"dsm.bytes_out", "dsm.diff_bytes", "dsm.requests", "dsm.mirage_drops", "dsm.busy_drops",
	"fil.steals_attempted", "fil.steals_granted", "fil.forks_sent",
	"reduce.barriers",
}

func runCounters(samples []obs.Sample) map[string]float64 {
	c := make(map[string]float64, len(nodeCounterNames))
	for _, name := range nodeCounterNames {
		c[name] = 0
	}
	for _, s := range samples {
		if _, ok := c[s.Name]; ok {
			c[s.Name] = float64(s.Value)
		}
	}
	return c
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dfonBody wraps an app's DFOn call in spans. DFOn allocates, runs and
// peeks in one call, so the Run inside it is recorded from the report:
// a child span of UDPReport.Elapsed starting with the call. The rest of
// the DFOn span is allocation, teardown and peek.
func dfonBody(sc scope, name string, call func() (*filaments.UDPReport, error)) (*filaments.UDPReport, error) {
	t0 := time.Now()
	inner, end := sc.child(name)
	rep, err := call()
	end()
	if rep != nil {
		inner.tr.record("Run", inner.trial, inner.parent, t0, rep.Elapsed)
	}
	return rep, err
}

// jacobiWorkload checks every trial's grid against want, the sequential
// reference.
func jacobiWorkload(want [][]float64) workload {
	return workload{
		name: "jacobi-pages",
		setup: func() (system, error) {
			body := func(run *filaments.UDPRun, sc scope) (*filaments.UDPReport, error) {
				var grid [][]float64
				rep, err := dfonBody(sc, "jacobi.DFOn", func() (*filaments.UDPReport, error) {
					r, g, err := jacobi.DFOn(jacobi.Config{N: jacobiN, Iters: jacobiIters}, run)
					grid = g
					return r, err
				})
				if err != nil {
					return rep, err
				}
				defer sc.begin("verify")()
				return rep, checkGrid(grid, want)
			}
			return newAppSystem(filaments.UDPRunConfig{Protocol: filaments.ImplicitInvalidate}, body)
		},
	}
}

func barrierWorkload() workload {
	return workload{
		name: "barrier-storm",
		setup: func() (system, error) {
			body := func(run *filaments.UDPRun, sc scope) (*filaments.UDPReport, error) {
				sums := make([]float64, nodes)
				counts := make([]int64, nodes)
				prog := func(rt *filaments.Runtime, e *filaments.Exec) {
					for i := 0; i < barrierK; i++ {
						e.Barrier()
					}
					counts[rt.ID()] = rt.Reducer().Count()
					sums[rt.ID()] = e.Reduce(float64(rt.ID()+1), filaments.Sum)
				}
				end := sc.begin("Run")
				rep, err := run.Run(prog)
				end()
				if err != nil {
					return rep, err
				}
				defer sc.begin("verify")()
				return rep, checkBarrier(sums, counts, nodes, barrierK)
			}
			return newAppSystem(filaments.UDPRunConfig{}, body)
		},
	}
}

// quadratureWorkload checks every trial's area against want, the
// sequential reference.
func quadratureWorkload(want float64) workload {
	cfg := quadrature.Config{Tol: quadTol}
	return workload{
		name: "quadrature-steal",
		setup: func() (system, error) {
			body := func(run *filaments.UDPRun, sc scope) (*filaments.UDPReport, error) {
				var area float64
				rep, err := dfonBody(sc, "quadrature.DFOn", func() (*filaments.UDPReport, error) {
					r, got, err := quadrature.DFOn(cfg, run)
					area = got
					return r, err
				})
				if err != nil {
					return rep, err
				}
				defer sc.begin("verify")()
				return rep, checkArea(area, want)
			}
			// The daemon's quadrature settings: stealing on, page-arrival
			// wakeups at the front.
			return newAppSystem(filaments.UDPRunConfig{Stealing: true, WakeFront: true}, body)
		},
	}
}
