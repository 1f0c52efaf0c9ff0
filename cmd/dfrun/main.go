// dfrun executes one application/variant combination and prints its
// timing and per-node counters. The default -transport=sim runs on the
// simulated cluster (virtual time); -transport=udp runs the same node
// program over real loopback UDP endpoints, one per node, in this process
// (wall-clock time; see cmd/dfnode for the multi-process form).
//
// Usage:
//
//	dfrun -app jacobi -variant df -nodes 8
//	dfrun -app jacobi -variant df -nodes 4 -transport udp
//	dfrun -app matmul -variant cg -nodes 4 -n 256
//	dfrun -app quadrature -variant bag -nodes 8
//	dfrun -app exprtree -variant df -nodes 8 -protocol migratory
package main

import (
	"flag"
	"fmt"
	"os"

	"filaments"
	"filaments/internal/apps/exprtree"
	"filaments/internal/apps/fft"
	"filaments/internal/apps/jacobi"
	"filaments/internal/apps/matmul"
	"filaments/internal/apps/mergesort"
	"filaments/internal/apps/quadrature"
	"filaments/internal/threads"
)

// main is the only caller of os.Exit: every error path returns through
// realMain, so the UDP variants' teardown (endpoint close, the
// Outstanding()==0 quiescence check inside UDPRun.Run) always executes
// before the process exits. The previous structure called os.Exit(1)
// from arbitrary depths, skipping both.
func main() {
	if err := realMain(); err != nil {
		fmt.Fprintf(os.Stderr, "dfrun: %v\n", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		app     = flag.String("app", "jacobi", "application: matmul | jacobi | quadrature | exprtree | fft | mergesort")
		variant = flag.String("variant", "df", "variant: seq | cg | df | bag (quadrature only)")
		nodes   = flag.Int("nodes", 8, "cluster size")
		n       = flag.Int("n", 0, "problem dimension (0 = paper default)")
		iters   = flag.Int("iters", 0, "jacobi iterations (0 = paper default)")
		height  = flag.Int("height", 0, "exprtree height (0 = paper default)")
		leaf    = flag.Int("leaf", 0, "fft/mergesort sequential-leaf size (0 = paper default)")
		tol     = flag.Float64("tol", 0, "quadrature tolerance (0 = paper default)")
		proto   = flag.String("protocol", "", "DSM protocol override: migratory | wi | ii | lrc")
		trans   = flag.String("transport", "sim", "binding: sim (virtual time) | udp (real loopback endpoints)")
		noDiffs = flag.Bool("nodiffs", false, "disable twin-and-diff page shipping over UDP")
		trace   = flag.String("trace", "", "write a Chrome trace-event JSON file (DF variants; load in about:tracing or Perfetto)")
		metrics = flag.Bool("metrics", false, "print the cluster-wide metric aggregation after the run")
		verbose = flag.Bool("v", false, "per-node counters")
	)
	flag.Parse()

	var tracer *filaments.Tracer
	if *trace != "" {
		tracer = filaments.NewTracer()
	}

	protocol := filaments.Migratory // zero value: app defaults apply
	switch *proto {
	case "":
	case "migratory":
		protocol = filaments.Migratory
	case "wi":
		protocol = filaments.WriteInvalidate
	case "ii":
		protocol = filaments.ImplicitInvalidate
	case "lrc", "lazy-release":
		protocol = filaments.LazyRelease
	default:
		return fmt.Errorf("unknown -protocol %q", *proto)
	}

	switch *trans {
	case "sim":
	case "udp":
		tuning := filaments.UDPTuning{NoDiffs: *noDiffs}
		return runUDP(*app, *variant, *nodes, *n, *iters, *tol, protocol, tuning, tracer, *trace, *metrics, *verbose)
	default:
		return fmt.Errorf("unknown -transport %q (sim | udp)", *trans)
	}

	var rep *filaments.Report
	switch *app {
	case "matmul":
		cfg := matmul.Config{N: *n, Nodes: *nodes, Protocol: protocol, Tracer: tracer}
		switch *variant {
		case "seq":
			rep, _ = matmul.Sequential(cfg)
		case "cg":
			rep, _ = matmul.CoarseGrain(cfg)
		case "df":
			rep, _, _ = matmul.DF(cfg)
		default:
			return fmt.Errorf("matmul has variants seq|cg|df")
		}
	case "jacobi":
		cfg := jacobi.Config{N: *n, Iters: *iters, Nodes: *nodes, Protocol: protocol, Tracer: tracer}
		switch *variant {
		case "seq":
			rep, _ = jacobi.Sequential(cfg)
		case "cg":
			rep, _ = jacobi.CoarseGrain(cfg)
		case "df":
			rep, _, _ = jacobi.DF(cfg)
		default:
			return fmt.Errorf("jacobi has variants seq|cg|df")
		}
	case "quadrature":
		cfg := quadrature.Config{Tol: *tol, Nodes: *nodes, Tracer: tracer}
		switch *variant {
		case "seq":
			rep, _ = quadrature.Sequential(cfg)
		case "cg":
			rep, _ = quadrature.CoarseGrain(cfg)
		case "bag":
			rep, _ = quadrature.BagOfTasks(cfg, 0)
		case "df":
			rep, _, _ = quadrature.DF(cfg)
		default:
			return fmt.Errorf("quadrature has variants seq|cg|df|bag")
		}
	case "exprtree":
		cfg := exprtree.Config{Height: *height, N: *n, Nodes: *nodes, Tracer: tracer}
		switch *variant {
		case "seq":
			rep, _ = exprtree.Sequential(cfg)
		case "cg":
			rep, _ = exprtree.CoarseGrain(cfg)
		case "df":
			rep, _, _ = exprtree.DF(cfg)
		default:
			return fmt.Errorf("exprtree has variants seq|cg|df")
		}
	case "fft":
		cfg := fft.Config{N: *n, Leaf: *leaf, Nodes: *nodes, Protocol: protocol, Tracer: tracer}
		switch *variant {
		case "seq":
			rep, _, _ = fft.Sequential(cfg)
		case "df":
			rep, _, _, _ = fft.DF(cfg)
		default:
			return fmt.Errorf("fft has variants seq|df")
		}
	case "mergesort":
		cfg := mergesort.Config{N: *n, Leaf: *leaf, Nodes: *nodes, Protocol: protocol, Tracer: tracer}
		switch *variant {
		case "seq":
			rep, _ = mergesort.Sequential(cfg)
		case "df":
			rep, _, _ = mergesort.DF(cfg)
		default:
			return fmt.Errorf("mergesort has variants seq|df")
		}
	default:
		return fmt.Errorf("unknown -app %q", *app)
	}

	fmt.Printf("%s/%s on %d nodes: %.2f simulated seconds\n",
		*app, *variant, *nodes, rep.Seconds())
	fmt.Printf("network: %d frames, %.1f MB, medium busy %.1f s (utilization %.0f%%)\n",
		rep.Net.FramesSent, float64(rep.Net.BytesSent)/(1<<20), rep.Net.Busy.Seconds(),
		100*rep.Net.Utilization(rep.Elapsed))
	if tracer != nil {
		if err := writeTrace(*trace, tracer); err != nil {
			return err
		}
	}
	if *metrics {
		printMetrics(rep.Metrics)
	}
	if !*verbose {
		return nil
	}
	fmt.Printf("%-5s %8s %9s %8s %8s %10s %8s %8s %8s\n",
		"node", "work(s)", "fil(s)", "data(s)", "sync(s)", "syncdly(s)", "idle(s)", "faults", "served")
	for i, nr := range rep.PerNode {
		a := nr.CPU
		fmt.Printf("%-5d %8.2f %9.3f %8.2f %8.2f %10.2f %8.2f %8d %8d\n",
			i,
			a[threads.CatWork].Seconds(),
			a[threads.CatFilament].Seconds(),
			a[threads.CatData].Seconds(),
			a[threads.CatSync].Seconds(),
			a[threads.CatSyncDelay].Seconds(),
			a[threads.CatIdle].Seconds(),
			nr.DSM.ReadFaults+nr.DSM.WriteFaults,
			nr.DSM.Served)
	}
	return nil
}

// runUDP executes the DF variant on the real-time binding: one UDP
// endpoint per node on loopback, wall-clock timing. The DF variants of
// jacobi, matmul, and quadrature run over udp — the seq/cg variants are
// single-address-space programs and exprtree has not been ported to the
// real-time binding. An error from the run — including the quiescence
// check (requests still outstanding after the last barrier) — returns
// through realMain so teardown is never skipped.
func runUDP(app, variant string, nodes, n, iters int, tol float64, protocol filaments.Protocol, tuning filaments.UDPTuning, tracer *filaments.Tracer, trace string, metrics, verbose bool) error {
	if variant != "df" {
		return fmt.Errorf("-transport=udp runs only -variant df (got %q): seq and cg do not use the cluster", variant)
	}
	var rep *filaments.UDPReport
	switch app {
	case "jacobi":
		cfg := jacobi.Config{N: n, Iters: iters, Nodes: nodes, Protocol: protocol, Tracer: tracer, Tuning: tuning}
		r, _, _, err := jacobi.DFUDP(cfg)
		if err != nil {
			return err
		}
		rep = r
	case "matmul":
		cfg := matmul.Config{N: n, Nodes: nodes, Protocol: protocol, Tracer: tracer, Tuning: tuning}
		r, _, _, err := matmul.DFUDP(cfg)
		if err != nil {
			return err
		}
		rep = r
	case "quadrature":
		cfg := quadrature.Config{Tol: tol, Nodes: nodes, Tracer: tracer, Tuning: tuning}
		r, _, err := quadrature.DFUDP(cfg, true)
		if err != nil {
			return err
		}
		rep = r
	default:
		return fmt.Errorf("-app %s is not supported over -transport=udp (supported: jacobi, matmul, quadrature)", app)
	}

	fmt.Printf("%s/df on %d nodes over loopback UDP: %.3f wall seconds\n",
		app, nodes, rep.Elapsed.Seconds())
	var reqs, retrans, faults int64
	for _, nr := range rep.PerNode {
		reqs += nr.Transport.RequestsSent
		retrans += nr.Transport.Retransmits
		faults += nr.DSM.ReadFaults + nr.DSM.WriteFaults
	}
	fmt.Printf("network: %d requests, %d retransmits, %d page faults\n", reqs, retrans, faults)
	if tracer != nil {
		if err := writeTrace(trace, tracer); err != nil {
			return err
		}
	}
	if metrics {
		printMetrics(rep.Metrics)
	}
	if !verbose {
		return nil
	}
	fmt.Printf("%-5s %8s %8s %8s %10s %8s\n",
		"node", "faults", "served", "reqs", "retrans", "steals")
	for i, nr := range rep.PerNode {
		fmt.Printf("%-5d %8d %8d %8d %10d %8d\n",
			i,
			nr.DSM.ReadFaults+nr.DSM.WriteFaults,
			nr.DSM.Served,
			nr.Transport.RequestsSent,
			nr.Transport.Retransmits,
			nr.Runtime.StealsGranted)
	}
	return nil
}

// writeTrace exports the collected events as Chrome trace-event JSON.
func writeTrace(path string, tr *filaments.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Printf("trace: %d events -> %s\n", tr.Len(), path)
	return nil
}

// printMetrics prints the aggregated cluster-wide counters.
func printMetrics(samples []filaments.Sample) {
	fmt.Printf("metrics (cluster-wide):\n")
	for _, s := range samples {
		fmt.Printf("  %-24s %d\n", s.Name, s.Value)
	}
}
