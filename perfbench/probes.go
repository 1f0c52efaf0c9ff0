package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"time"

	"filaments"
	"filaments/internal/cluster/daemon"
	"filaments/internal/rtnode"
	"filaments/internal/udptrans"
)

// The layer-probe pass: microprobes that time calls into one layer's
// public functions, from outside the program, with fixed operation
// counts. Each returns its metrics by name; a probe whose output is
// wrong returns an error, which counts as a failed operation.

type probe struct {
	name string
	run  func(sc scope) (map[string]float64, error)
}

func probes(withDaemon bool) []probe {
	ps := []probe{
		{"udptrans.Call", probeCall},
		{"rtnode.codec", probeCodec},
		{"dsm.ReadF64", probeReadCheck},
		{"dsm.remote_fault", probeRemoteFault},
		{"filament.Pool", probeFilament},
		{"reduce.Barrier", probeBarrier},
		{"filaments.StartRun", probeStartRun},
	}
	if withDaemon {
		ps = append(ps, probe{"daemon.jobs", probeDaemon})
	}
	return ps
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func median(v []float64) float64 { return summarize(v).Median }

const svcEcho = 1

// probeCall times udptrans.Endpoint.Call round trips of a 64 B and a
// 4 KB echo between two loopback endpoints, and counts the process's
// allocations per 64 B call (both sides of the exchange).
func probeCall(sc scope) (map[string]float64, error) {
	opts := udptrans.Options{}
	a, err := udptrans.Listen("127.0.0.1:0", opts)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	b, err := udptrans.Listen("127.0.0.1:0", opts)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	b.Register(svcEcho, udptrans.Service{Idempotent: true, Handler: func(_ *net.UDPAddr, req []byte) ([]byte, bool) {
		return req, false
	}})
	rtt := func(size, calls int) (float64, float64, error) {
		req := bytes.Repeat([]byte{0x5a}, size)
		lat := make([]float64, 0, calls)
		m0 := mallocs()
		for i := 0; i < calls; i++ {
			t0 := time.Now()
			reply, err := a.Call(b.Addr(), svcEcho, req)
			lat = append(lat, float64(time.Since(t0))/float64(time.Microsecond))
			if err != nil {
				return 0, 0, err
			}
			if !bytes.Equal(reply, req) {
				return 0, 0, fmt.Errorf("echo of %d bytes came back as %d different bytes", size, len(reply))
			}
		}
		return median(lat), float64(mallocs()-m0) / float64(calls), nil
	}
	if _, _, err := rtt(64, 200); err != nil { // warm the buffer pools
		return nil, err
	}
	end := sc.begin("Endpoint.Call 64B")
	us64, allocs, err := rtt(64, 4000)
	end()
	if err != nil {
		return nil, err
	}
	end = sc.begin("Endpoint.Call 4KB")
	us4k, _, err := rtt(4096, 2000)
	end()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"udptrans.call_rtt_us":    us64,
		"udptrans.call_rtt_4k_us": us4k,
		"udptrans.call_allocs":    allocs,
	}, nil
}

// probeCodec times marshal plus unmarshal of a page-sized registered
// payload (one 4 KB row of the [][]float64 codec) through
// rtnode.AppendPayload into a reused buffer, as the transport frames it,
// and rtnode.UnmarshalPayload.
func probeCodec(sc scope) (map[string]float64, error) {
	row := make([]float64, filaments.PageSize/8)
	for i := range row {
		row[i] = float64(i) * 0.5
	}
	var page any = [][]float64{row}
	buf := rtnode.AppendPayload(nil, page)
	const batches, per = 50, 400
	perOp := make([]float64, 0, batches)
	var got any
	defer sc.begin("AppendPayload+UnmarshalPayload")()
	m0 := mallocs()
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			buf = rtnode.AppendPayload(buf[:0], page)
			got = rtnode.UnmarshalPayload(buf)
		}
		perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/per)
	}
	allocs := float64(mallocs()-m0) / (batches * per)
	if err := checkGrid(got.([][]float64), page.([][]float64)); err != nil {
		return nil, fmt.Errorf("codec round trip: %w", err)
	}
	return map[string]float64{"rtnode.codec_page_ns": median(perOp), "rtnode.codec_allocs": allocs}, nil
}

// onCluster runs program once on a fresh cluster of n nodes.
func onCluster(n int, rc filaments.UDPRunConfig, alloc func(*filaments.UDPRun), program filaments.Program) error {
	cl, err := filaments.NewUDPCluster(filaments.UDPConfig{Nodes: n})
	if err != nil {
		return err
	}
	defer cl.Close()
	run, err := cl.StartRun(rc)
	if err != nil {
		return err
	}
	if alloc != nil {
		alloc(run)
	}
	_, err = run.Run(program)
	return err
}

// probeReadCheck times Exec.ReadF64 on a resident page of a 1-node
// cluster: the DSM access check on its fast path.
func probeReadCheck(sc scope) (map[string]float64, error) {
	const batches, per = 50, 20000
	var a filaments.Addr
	perOp := make([]float64, 0, batches)
	var sum float64
	defer sc.begin("Exec.ReadF64 resident")()
	err := onCluster(1, filaments.UDPRunConfig{}, func(r *filaments.UDPRun) { a = r.Alloc(8) },
		func(rt *filaments.Runtime, e *filaments.Exec) {
			e.WriteF64(a, 1)
			for b := 0; b < batches; b++ {
				t0 := time.Now()
				for i := 0; i < per; i++ {
					sum += e.ReadF64(a)
				}
				perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/per)
			}
		})
	if err != nil {
		return nil, err
	}
	if sum != batches*per {
		return nil, fmt.Errorf("resident reads summed to %v, want %v", sum, batches*per)
	}
	return map[string]float64{"dsm.read_check_ns": median(perOp)}, nil
}

// probeRemoteFault times Exec.ReadF64 of pages owned by the peer on a
// 2-node cluster: each read is a full remote fault (request, owner's
// service, page transfer, install). Node 0 writes a marker into every
// page first, so each fault must carry data.
func probeRemoteFault(sc scope) (map[string]float64, error) {
	const rounds, pages = 4, 250
	var lat []float64
	defer sc.begin("Exec.ReadF64 remote")()
	for r := 0; r < rounds; r++ {
		var base filaments.Addr
		var bad error
		err := onCluster(2, filaments.UDPRunConfig{Protocol: filaments.ImplicitInvalidate},
			func(run *filaments.UDPRun) { base = run.AllocOwned(pages*filaments.PageSize, 0) },
			func(rt *filaments.Runtime, e *filaments.Exec) {
				if rt.ID() == 0 {
					for i := 0; i < pages; i++ {
						e.WriteF64(base+filaments.Addr(i*filaments.PageSize), float64(i+1))
					}
				}
				e.Barrier()
				if rt.ID() == 1 {
					for i := 0; i < pages; i++ {
						t0 := time.Now()
						v := e.ReadF64(base + filaments.Addr(i*filaments.PageSize))
						lat = append(lat, float64(time.Since(t0))/float64(time.Microsecond))
						if v != float64(i+1) && bad == nil {
							bad = fmt.Errorf("remote page %d read %v, want %v", i, v, float64(i+1))
						}
					}
				}
				e.Barrier()
			})
		if err == nil {
			err = bad
		}
		if err != nil {
			return nil, err
		}
	}
	return map[string]float64{"dsm.remote_fault_us": median(lat)}, nil
}

// probeFilament times Pool.Add per filament and RunPools per filament
// (an empty body, so the runtime's own cost) on a 1-node cluster.
func probeFilament(sc scope) (map[string]float64, error) {
	const rounds, per = 40, 16384
	var create, run []float64
	ran := 0
	defer sc.begin("Pool.Add+RunPools")()
	err := onCluster(1, filaments.UDPRunConfig{}, nil, func(rt *filaments.Runtime, e *filaments.Exec) {
		p := rt.NewPool("probe")
		fn := func(e *filaments.Exec, a filaments.Args) { ran++ }
		for r := 0; r < rounds; r++ {
			rt.ResetPools()
			t0 := time.Now()
			for i := 0; i < per; i++ {
				p.Add(e, fn, filaments.Args{int64(i)})
			}
			t1 := time.Now()
			rt.RunPools(e)
			create = append(create, float64(t1.Sub(t0).Nanoseconds())/per)
			run = append(run, float64(time.Since(t1).Nanoseconds())/per)
		}
	})
	if err != nil {
		return nil, err
	}
	if ran != rounds*per {
		return nil, fmt.Errorf("RunPools ran %d filaments, want %d", ran, rounds*per)
	}
	return map[string]float64{"filament.create_ns": median(create), "filament.run_ns": median(run)}, nil
}

// probeBarrier times each of k barriers on node 0 of a 4-node cluster.
func probeBarrier(sc scope) (map[string]float64, error) {
	const k = 2000
	lat := make([]float64, 0, k)
	counts := make([]int64, nodes)
	defer sc.begin("Exec.Barrier")()
	err := onCluster(nodes, filaments.UDPRunConfig{}, nil, func(rt *filaments.Runtime, e *filaments.Exec) {
		for i := 0; i < k; i++ {
			t0 := time.Now()
			e.Barrier()
			if rt.ID() == 0 {
				lat = append(lat, float64(time.Since(t0))/float64(time.Microsecond))
			}
		}
		counts[rt.ID()] = rt.Reducer().Count()
	})
	if err != nil {
		return nil, err
	}
	for i, c := range counts {
		if c != k {
			return nil, fmt.Errorf("node %d completed %d barriers, want %d", i, c, k)
		}
	}
	return map[string]float64{"reduce.barrier_us": median(lat)}, nil
}

// probeStartRun times StartRun, an empty Run, and the lane coming back,
// on a live 4-node cluster.
func probeStartRun(sc scope) (map[string]float64, error) {
	cl, err := filaments.NewUDPCluster(filaments.UDPConfig{Nodes: nodes})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	const reps = 100
	lat := make([]float64, 0, reps)
	defer sc.begin("StartRun+Run empty")()
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		run, err := cl.StartRun(filaments.UDPRunConfig{})
		if err != nil {
			return nil, err
		}
		if _, err := run.Run(func(*filaments.Runtime, *filaments.Exec) {}); err != nil {
			return nil, err
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	return map[string]float64{"filaments.start_run_ms": median(lat)}, nil
}

// probeSpecs is the daemon probe's job list, for workloads that do not
// run the daemon themselves: small jobs of each kind, one client.
var probeSpecs = []daemon.JobSpec{
	{App: "jacobi", N: 64, Iters: 50},
	{App: "matmul", N: 64},
	{App: "quadrature", N: 10},
	{App: "jacobi", N: 64, Iters: 50},
	{App: "matmul", N: 64},
	{App: "quadrature", N: 10},
}

// probeDaemon runs probeSpecs through a fresh coordinator's REST API and
// reports the daemon layer metrics of those jobs.
func probeDaemon(sc scope) (map[string]float64, error) {
	d, err := setupDaemon(0)
	if err != nil {
		return nil, err
	}
	defer d.close()
	res := d.batch(sc, probeSpecs, 1)
	if len(res.errs) > 0 {
		return nil, res.errs[0]
	}
	out := make(map[string]float64)
	for k, v := range res.perJob {
		out[k] = median(v)
	}
	return out, nil
}
