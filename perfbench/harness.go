package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// system is a workload's live system under test, built once by the
// workload's setup and then driven trial after trial.
type system interface {
	// trial runs one verified unit of work — one app run, or one batch
	// of daemon jobs — recording its spans in sc.
	trial(sc scope) trialResult
	close()
}

// trialResult is what one trial measured. ops is the number of
// operations the trial attempted (one app run, or each job of a batch);
// errs holds one error per failed operation: an output check that
// failed, or an error the program reported.
type trialResult struct {
	ops      int
	errs     []error
	runS     float64              // the timed work: UDPReport.Elapsed, or a job batch's wall time
	latMS    []float64            // client-side latency of each job, start to verified result
	counters map[string]float64   // this trial's layer counters
	perJob   map[string][]float64 // daemon layer values, one per job
}

// failedTrial is the result of a trial whose ops operations failed with err.
func failedTrial(ops int, err error) trialResult {
	return trialResult{ops: ops, errs: []error{err}}
}

type workload struct {
	name  string
	setup func() (system, error)
}

// scope is where a trial records spans: the tracer (nil when untraced),
// the trial id every span of the trial carries, and the enclosing span.
type scope struct {
	tr            *tracer
	trial, parent int
}

// child opens a span under s and returns the scope nested inside it.
func (s scope) child(name string) (scope, func()) {
	id, end := s.tr.begin(name, s.trial, s.parent)
	return scope{s.tr, s.trial, id}, end
}

// begin opens a leaf span under s.
func (s scope) begin(name string) func() {
	_, end := s.tr.begin(name, s.trial, s.parent)
	return end
}

// trialTimeout bounds one trial. A run can block forever when a peer is
// lost, so the watchdog fails the benchmark instead of hanging it.
const trialTimeout = 60 * time.Second

// measurement collects a run's samples.
type measurement struct {
	attempted, failed int
	setupS            []float64
	runS, cpuS, alloc []float64
	latMS             []float64
	counters          []map[string]float64
	perJob            map[string][]float64
	// In the traced run, run_s of the traced and of the untraced trials.
	tracedRunS, plainRunS []float64
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	fmt.Printf("FAILED: "+format+"\n", args...)
}

type usage struct {
	cpu   time.Duration
	alloc uint64
}

func sampleUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// measure builds w's system, runs one warm-up trial that is verified but
// not measured, then runs trials until seconds have passed. With a
// tracer, trials alternate between traced and untraced so the
// difference in run_s is the tracing overhead.
//
// After each measured trial it also builds and closes a spare system,
// so setup_s is a median over as many set-ups as there are trials, taken
// across the whole run like the trials themselves rather than in a
// burst at its start.
func measure(w workload, seconds float64, tr *tracer) *measurement {
	m := &measurement{perJob: make(map[string][]float64)}
	root := scope{tr: tr}
	root, endWorkload := root.child("workload " + w.name)
	defer endWorkload()

	build := func() system {
		end := root.begin("setup")
		t0 := time.Now()
		s, err := w.setup()
		d := time.Since(t0)
		end()
		if err != nil {
			m.attempted++
			m.fail("%s setup: %v", w.name, err)
			return nil
		}
		m.setupS = append(m.setupS, d.Seconds())
		return s
	}
	sys := build()
	if sys == nil {
		return m
	}
	defer sys.close()

	runTrial := func(id int, traced bool) (trialResult, usage) {
		sc := scope{trial: id, parent: root.parent}
		if traced {
			sc.tr = tr
		}
		sc, end := sc.child("trial")
		attempted, failed := m.attempted+1, m.failed+1
		wd := time.AfterFunc(trialTimeout, func() {
			fmt.Printf("FAILED: %s trial %d: no result after %v\n", w.name, id, trialTimeout)
			printResult(attempted, failed, nil)
			os.Exit(1)
		})
		before := sampleUsage()
		res := sys.trial(sc)
		after := sampleUsage()
		wd.Stop()
		end()
		m.attempted += res.ops
		for _, err := range res.errs {
			m.fail("%s trial %d: %v", w.name, id, err)
		}
		return res, usage{cpu: after.cpu - before.cpu, alloc: after.alloc - before.alloc}
	}

	runTrial(0, tr != nil) // warm-up: caches, pools and lanes fill here
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for id := 1; time.Now().Before(deadline); id++ {
		traced := tr != nil && id%2 == 1
		res, u := runTrial(id, traced)
		if spare := build(); spare != nil {
			spare.close()
		}
		if len(res.errs) > 0 {
			continue
		}
		m.runS = append(m.runS, res.runS)
		m.cpuS = append(m.cpuS, u.cpu.Seconds())
		m.alloc = append(m.alloc, float64(u.alloc)/1e6)
		m.latMS = append(m.latMS, res.latMS...)
		m.counters = append(m.counters, res.counters)
		for k, v := range res.perJob {
			m.perJob[k] = append(m.perJob[k], v...)
		}
		if tr != nil {
			if traced {
				m.tracedRunS = append(m.tracedRunS, res.runS)
			} else {
				m.plainRunS = append(m.plainRunS, res.runS)
			}
		}
	}
	return m
}
