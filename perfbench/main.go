// Command perfbench is the repository's benchmark: four workloads on the
// real UDP binding and the coordinator daemon, over loopback, each trial
// verified against its sequential reference. See README.md.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//	perfbench compare [--bench BENCHMARK.json] OLD NEW
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// makes the separate traced run and the layer-probe pass and reports
// the per-layer metrics. The last line of standard output is the
// result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"filaments/internal/apps/jacobi"
	"filaments/internal/apps/quadrature"
)

func main() { os.Exit(realMain(os.Args[1:])) }

// traceDir is where the traced run writes its Chrome trace, inside the
// checkout's build directory.
const traceDir = ".bench_build/traces"

func workloadByName(name string, seed int64) (workload, bool) {
	switch name {
	case "jacobi-pages":
		return jacobiWorkload(jacobi.Reference(jacobiN, jacobiIters)), true
	case "barrier-storm":
		return barrierWorkload(), true
	case "quadrature-steal":
		area, _ := quadrature.Reference(quadrature.Config{Tol: quadTol})
		return quadratureWorkload(area), true
	case "daemon-mix":
		return daemonWorkload(seed), true
	}
	return workload{}, false
}

func realMain(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:])
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "jacobi-pages | barrier-storm | quadrature-steal | daemon-mix")
	seed := fs.Int64("seed", 1, "workload seed (orders daemon-mix's jobs)")
	seconds := fs.Float64("seconds", 10, "how long to run trials")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, layer probes and per-layer metrics")
	out := fs.String("out", "", "append this run's record (medians, quartiles, sample counts) to this file, for compare mode")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name, *seed)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q, seconds %v, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	return execute(w, *seed, *seconds, *trace, *out)
}

// execute runs w, prints its report and result line, and returns the
// exit code: non-zero when any operation failed.
func execute(w workload, seed int64, seconds float64, trace int, out string) int {
	fmt.Printf("workload %s  seed %d  seconds %v  trace %d  GOMAXPROCS %d  traffic: loopback UDP and HTTP, not a real link\n",
		w.name, seed, seconds, trace, runtime.GOMAXPROCS(0))
	var rec record
	if trace == 0 {
		rec = endToEnd(measure(w, seconds, nil))
	} else {
		rec = traced(w, seconds, seed)
	}
	rec.Workload, rec.Seed, rec.Trace = w.name, seed, trace
	printTable(rec)
	if out != "" {
		if err := appendRecord(out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			rec.Failed++
		}
	}
	printResult(rec.Attempted, rec.Failed, rec.Metrics)
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

// endToEnd summarizes an untraced run into the end-to-end metrics.
func endToEnd(m *measurement) record {
	rec := newRecord(m)
	rec.put("setup_s", "s", summarize(m.setupS))
	rec.put("run_s", "s", summarize(m.runS))
	rec.put("cpu_s", "s", summarize(m.cpuS))
	rec.put("alloc_mb", "MB", summarize(m.alloc))
	lat := summarize(m.latMS)
	rec.put("job_p50_ms", "ms", lat)
	sorted := append([]float64(nil), m.latMS...)
	sort.Float64s(sorted)
	p90 := quantile(sorted, 0.9)
	rec.put("job_p90_ms", "ms", summary{Median: p90, Q1: p90, Q3: p90, N: len(sorted)})
	rec.Notes = append(rec.Notes, fmt.Sprintf("job_p90_ms over %d latencies: %s", len(sorted), tailSupport(90, len(sorted))))
	return rec
}

// traced makes the traced run: trials alternate traced and untraced, the
// layer-probe pass follows, and the spans are written as Chrome trace
// JSON with each span name's self time printed next to it.
func traced(w workload, seconds float64, seed int64) record {
	tr := newTracer()
	m := measure(w, seconds, tr)
	rec := newRecord(m)
	layerCounters(&rec, m)

	overhead := 0.0
	if len(m.tracedRunS) > 0 && len(m.plainRunS) > 0 {
		overhead = (median(m.tracedRunS) - median(m.plainRunS)) * 1000
	}
	rec.put("trace.overhead_ms", "ms", summary{Median: overhead, Q1: overhead, Q3: overhead, N: len(m.tracedRunS)})
	rec.Notes = append(rec.Notes, fmt.Sprintf("tracing overhead on %s: traced run_s %.4f s (n=%d) - untraced run_s %.4f s (n=%d) = %+.3f ms",
		w.name, median(m.tracedRunS), len(m.tracedRunS), median(m.plainRunS), len(m.plainRunS), overhead))

	root := scope{tr: tr, trial: 999}
	root, end := root.child("layer probes")
	for _, p := range probes(w.name != "daemon-mix") {
		psc, endProbe := root.child("probe " + p.name)
		vals, err := p.run(psc)
		endProbe()
		rec.Attempted++
		if err != nil {
			rec.Failed++
			fmt.Printf("FAILED: probe %s: %v\n", p.name, err)
			continue
		}
		for k, v := range vals {
			rec.put(k, layerUnits[k], summary{Median: v, Q1: v, Q3: v, N: 1})
		}
	}
	end()

	fmt.Println("self time by span (traced trials and probes):")
	fmt.Printf("  %-36s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, st := range tr.selfTimes() {
		fmt.Printf("  %-36s %7d %12.3f %12.3f\n", st.Name, st.Count, ms(st.Total), ms(st.Self))
	}
	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := writeTrace(path, tr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
		rec.Failed++
	} else {
		fmt.Printf("chrome trace: %s\n", path)
	}
	return rec
}

func writeTrace(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerUnits gives every per-layer metric's unit.
var layerUnits = map[string]string{
	"udptrans.call_rtt_us": "us", "udptrans.call_rtt_4k_us": "us", "udptrans.call_allocs": "allocs/op",
	"net.requests_sent": "count", "net.retransmits": "count", "net.retransmit_ratio": "ratio",
	"net.dup_suppressed": "count", "net.cache_hits": "count", "net.bytes_sent": "B",
	"rtnode.codec_page_ns": "ns", "rtnode.codec_allocs": "allocs/op", "msg.sent": "count",
	"dsm.read_check_ns": "ns", "dsm.remote_fault_us": "us", "dsm.read_faults": "count",
	"dsm.write_faults": "count", "dsm.served": "count", "dsm.fault_wait_ms": "ms",
	"dsm.bytes_out": "B", "dsm.diff_ratio": "ratio", "dsm.requests": "count", "dsm.wasted_requests": "count",
	"filament.create_ns": "ns", "filament.run_ns": "ns", "fil.steals_attempted": "count",
	"fil.steal_grant_ratio": "ratio", "fil.forks_sent": "count",
	"reduce.barrier_us": "us", "reduce.barriers": "count",
	"filaments.start_run_ms": "ms",
	"daemon.queue_wait_ms":   "ms", "daemon.job_run_ms": "ms", "daemon.job_overhead_ms": "ms", "daemon.api_ms": "ms",
	"trace.overhead_ms": "ms",
}

// layerCounters reports a workload's counters per trial (medians over
// trials) and its ratios over the run's totals, each ratio next to its
// base. On daemon-mix the daemon layer metrics are medians over jobs.
func layerCounters(rec *record, m *measurement) {
	perTrial := func(name string) []float64 {
		v := make([]float64, len(m.counters))
		for i, c := range m.counters {
			v[i] = c[name]
		}
		return v
	}
	total := func(name string) float64 {
		t := 0.0
		for _, c := range m.counters {
			t += c[name]
		}
		return t
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	for _, name := range []string{
		"net.requests_sent", "net.retransmits", "net.dup_suppressed", "net.cache_hits", "net.bytes_sent",
		"msg.sent", "dsm.read_faults", "dsm.write_faults", "dsm.served", "dsm.bytes_out", "dsm.requests",
		"fil.steals_attempted", "fil.forks_sent", "reduce.barriers",
	} {
		rec.put(name, layerUnits[name], summarize(perTrial(name)))
	}
	wait := perTrial("dsm.fault_wait_ns")
	wasted := perTrial("dsm.mirage_drops")
	for i, v := range perTrial("dsm.busy_drops") {
		wasted[i] += v
	}
	for i := range wait {
		wait[i] /= 1e6
	}
	rec.put("dsm.fault_wait_ms", "ms", summarize(wait))
	rec.put("dsm.wasted_requests", "count", summarize(wasted))
	for _, r := range []struct{ name, num, den string }{
		{"net.retransmit_ratio", "net.retransmits", "net.requests_sent"},
		{"dsm.diff_ratio", "dsm.diff_bytes", "dsm.bytes_out"},
		{"fil.steal_grant_ratio", "fil.steals_granted", "fil.steals_attempted"},
	} {
		v := ratio(total(r.num), total(r.den))
		rec.put(r.name, "ratio", summary{Median: v, Q1: v, Q3: v, N: len(m.counters)})
		rec.Notes = append(rec.Notes, fmt.Sprintf("%s = %s / %s = %.0f / %.0f over %d trials",
			r.name, r.num, r.den, total(r.num), total(r.den), len(m.counters)))
	}
	for name, v := range m.perJob {
		rec.put(name, "ms", summarize(v))
	}
}

func printTable(rec record) {
	fmt.Printf("ops attempted %d  failed %d\n", rec.Attempted, rec.Failed)
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("  %-26s %-10s %14s %14s %14s %6s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, k := range names {
		v := rec.Metrics[k]
		fmt.Printf("  %-26s %-10s %14.6g %14.6g %14.6g %6d\n", k, v.Unit, v.Value, v.Q1, v.Q3, v.N)
	}
	for _, n := range rec.Notes {
		fmt.Println("  " + n)
	}
}

// printResult prints the result line: the last line of standard output.
func printResult(attempted, failed int, metrics map[string]recMetric) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]value)}
	for k, v := range metrics {
		out.Metrics[k] = value{Value: v.Value, Unit: v.Unit}
	}
	b, _ := json.Marshal(out) // plain structs and maps of float64 always marshal
	fmt.Println(string(b))
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing record to %s: %w", path, err)
	}
	return nil
}
