package bench

import (
	"fmt"
	"io"
	"time"

	"filaments"
	"filaments/internal/apps/jacobi"
)

// Wall-clock experiments over the real-time UDP binding.
//
// These live in their own registry (AllUDP/FindUDP, `dfbench
// -transport=udp`), not next to the paper tables: the simulation
// experiments report calibrated virtual time and reproduce the paper's
// numbers anywhere, while these report wall time on real loopback
// sockets, so the absolute numbers depend on the host. What IS portable
// is the ratio between wire-path configurations — whole pages and
// twin-and-diff page shipping — which is exactly what the tables put
// side by side.

var udpRegistry []Experiment

func registerUDP(id, title string, run func(w io.Writer, o Options)) {
	udpRegistry = append(udpRegistry, Experiment{ID: id, Title: title, Run: run})
}

// AllUDP returns the wall-clock UDP experiments.
func AllUDP() []Experiment {
	return append([]Experiment(nil), udpRegistry...)
}

// FindUDP returns the UDP experiment with the given ID.
func FindUDP(id string) (Experiment, bool) {
	for _, e := range udpRegistry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func init() {
	registerUDP("udp_pages", "Page transfer throughput over loopback UDP, by wire configuration", udpPages)
	registerUDP("udp_barrier", "Barrier latency over loopback UDP, by wire configuration", udpBarrier)
}

// udpTunings is the wire-path sweep every UDP experiment runs: whole
// pages as the baseline, then page diffs layered in.
var udpTunings = []struct {
	name   string
	tuning filaments.UDPTuning
}{
	{"binary", filaments.UDPTuning{NoDiffs: true}},
	{"binary+diffs", filaments.UDPTuning{}},
}

func wireBytes(rep *filaments.UDPReport) int64 {
	var n int64
	for _, nr := range rep.PerNode {
		n += nr.Transport.BytesSent
	}
	return n
}

// udpPages runs jacobi over loopback UDP under each wire configuration
// and reports wall time, page-transfer throughput, and total bytes put
// on the wire. Jacobi is the page-traffic-bound program of the paper's
// suite: every iteration moves boundary strips between neighbours, so
// the wire path dominates.
func udpPages(w io.Writer, o Options) {
	n, iters, nodes := 128, 24, 4
	if o.Quick {
		n, iters = 48, 6
	}
	fmt.Fprintf(w, "jacobi %dx%d, %d iterations, %d nodes over loopback UDP (wall clock)\n", n, n, iters, nodes)
	fmt.Fprintf(w, "  %-14s %12s %12s %12s %12s\n",
		"Config", "Elapsed(ms)", "Pages", "Pages/sec", "Wire KB")
	for _, tc := range udpTunings {
		cfg := jacobi.Config{
			N: n, Iters: iters, Nodes: nodes,
			Protocol: filaments.ImplicitInvalidate,
			Tuning:   tc.tuning,
		}
		rep, _, _, err := jacobi.DFUDP(cfg)
		if err != nil {
			panic(err)
		}
		var served int64
		for _, nr := range rep.PerNode {
			served += nr.DSM.Served
		}
		elapsed := rep.Elapsed
		r := UDPRow{
			Config:      tc.name,
			Nodes:       nodes,
			ElapsedMS:   fmt.Sprintf("%.1f", float64(elapsed.Microseconds())/1000),
			PagesPerSec: fmt.Sprintf("%.0f", float64(served)/elapsed.Seconds()),
			WireBytes:   wireBytes(rep),
		}
		fmt.Fprintf(w, "  %-14s %12s %12d %12s %12.1f\n",
			r.Config, r.ElapsedMS, served, r.PagesPerSec, float64(r.WireBytes)/1024)
		if o.result != nil {
			o.result.UDPRows = append(o.result.UDPRows, r)
		}
	}
}

// udpBarrier times a pure barrier loop over loopback UDP — the paper's
// Figure 8 shape, but wall clock. Barriers ship tiny payloads, so this
// isolates per-message software overhead (and is why event batching is
// off by default: nothing here amortizes a held-back datagram).
func udpBarrier(w io.Writer, o Options) {
	const nodes = 4
	k := 200
	if o.Quick {
		k = 50
	}
	fmt.Fprintf(w, "%d barriers, %d nodes over loopback UDP (wall clock)\n", k, nodes)
	fmt.Fprintf(w, "  %-14s %12s %14s %12s\n", "Config", "Elapsed(ms)", "Barrier(µs)", "Wire KB")
	for _, tc := range udpTunings {
		cl, err := filaments.NewUDPCluster(filaments.UDPConfig{
			Nodes:  nodes,
			Tuning: tc.tuning,
		})
		if err != nil {
			panic(err)
		}
		run, err := cl.StartRun(filaments.UDPRunConfig{})
		if err != nil {
			panic(err)
		}
		rep, err := run.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
			for i := 0; i < k; i++ {
				e.Barrier()
			}
		})
		cl.Close() //nolint:errcheck // the run's error is the one to report
		if err != nil {
			panic(err)
		}
		perBarrier := rep.Elapsed / time.Duration(k)
		r := UDPRow{
			Config:    tc.name,
			Nodes:     nodes,
			ElapsedMS: fmt.Sprintf("%.1f", float64(rep.Elapsed.Microseconds())/1000),
			BarrierUS: fmt.Sprintf("%.1f", float64(perBarrier.Nanoseconds())/1000),
			WireBytes: wireBytes(rep),
		}
		fmt.Fprintf(w, "  %-14s %12s %14s %12.1f\n",
			r.Config, r.ElapsedMS, r.BarrierUS, float64(r.WireBytes)/1024)
		if o.result != nil {
			o.result.UDPRows = append(o.result.UDPRows, r)
		}
	}
}
