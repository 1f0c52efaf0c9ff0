// Benchmarks regenerating the paper's tables and figures, one per
// experiment, at reduced problem sizes (wall-clock friendly). Each reports
// the *virtual* time of the simulated 1994 cluster as "vsec" — the number
// the paper's tables hold — alongside Go wall time. Full paper-scale
// tables come from cmd/dfbench.
package filaments_test

import (
	"fmt"
	"io"
	"testing"

	"filaments"
	"filaments/internal/apps/exprtree"
	"filaments/internal/apps/fft"
	"filaments/internal/apps/jacobi"
	"filaments/internal/apps/matmul"
	"filaments/internal/apps/mergesort"
	"filaments/internal/apps/quadrature"
	"filaments/internal/bench"
)

// report attaches the simulated time to the benchmark result.
func report(b *testing.B, rep *filaments.Report) {
	b.ReportMetric(rep.Seconds(), "vsec")
}

func nodesSweep(b *testing.B, run func(b *testing.B, nodes int)) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", p), func(b *testing.B) {
			run(b, p)
		})
	}
}

// --- Figure 4: matrix multiplication ---

func BenchmarkFig4MatmulCG(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _ = matmul.CoarseGrain(matmul.Config{N: 128, Nodes: p})
		}
		report(b, rep)
	})
}

func BenchmarkFig4MatmulDF(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _, _ = matmul.DF(matmul.Config{N: 128, Nodes: p})
		}
		report(b, rep)
	})
}

// --- Figure 5: Jacobi iteration ---

func BenchmarkFig5JacobiCG(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _ = jacobi.CoarseGrain(jacobi.Config{N: 128, Iters: 60, Nodes: p})
		}
		report(b, rep)
	})
}

func BenchmarkFig5JacobiDF(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _, _ = jacobi.DF(jacobi.Config{N: 128, Iters: 60, Nodes: p})
		}
		report(b, rep)
	})
}

// --- Figure 6: adaptive quadrature ---

func BenchmarkFig6QuadratureCG(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _ = quadrature.CoarseGrain(quadrature.Config{Tol: 1e-4, Nodes: p})
		}
		report(b, rep)
	})
}

func BenchmarkFig6QuadratureDF(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _, _ = quadrature.DF(quadrature.Config{Tol: 1e-4, Nodes: p})
		}
		report(b, rep)
	})
}

func BenchmarkFig6QuadratureBag(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		if p == 1 {
			b.Skip("bag needs a master and slaves")
		}
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _ = quadrature.BagOfTasks(quadrature.Config{Tol: 1e-4, Nodes: p}, 0)
		}
		report(b, rep)
	})
}

// --- Figure 7: binary expression trees ---

func BenchmarkFig7ExprTreeCG(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _ = exprtree.CoarseGrain(exprtree.Config{Height: 5, N: 24, Nodes: p})
		}
		report(b, rep)
	})
}

func BenchmarkFig7ExprTreeDF(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _, _ = exprtree.DF(exprtree.Config{Height: 5, N: 24, Nodes: p})
		}
		report(b, rep)
	})
}

// --- Figure 8: barrier synchronization ---

func BenchmarkFig8Barrier(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", p), func(b *testing.B) {
			var perBarrier float64
			for i := 0; i < b.N; i++ {
				cl := filaments.New(filaments.Config{Nodes: p})
				rep, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
					for k := 0; k < 100; k++ {
						e.Barrier()
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				perBarrier = rep.Elapsed.Milliseconds() / 100
			}
			b.ReportMetric(perBarrier, "vms/barrier")
		})
	}
}

// --- Figure 9: filament overheads (real Go wall clock per operation) ---

func BenchmarkFig9FilamentCreate(b *testing.B) {
	cl := filaments.New(filaments.Config{Nodes: 1})
	_, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		p := rt.NewPool("bench")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Add(e, func(e *filaments.Exec, a filaments.Args) {}, filaments.Args{int64(i)})
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFig9FilamentRunInlined(b *testing.B) {
	cl := filaments.New(filaments.Config{Nodes: 1})
	_, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		p := rt.NewPool("bench")
		fn := func(e *filaments.Exec, a filaments.Args) {}
		// Process b.N filaments in bounded chunks so auto-scaled b.N does
		// not build one enormous pool.
		const chunk = 65536
		b.ResetTimer()
		for done := 0; done < b.N; done += chunk {
			n := b.N - done
			if n > chunk {
				n = chunk
			}
			b.StopTimer()
			rt.ResetPools()
			for i := 0; i < n; i++ {
				p.Add(e, fn, filaments.Args{int64(i)})
			}
			b.StartTimer()
			rt.RunPools(e)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFig9PageFault(b *testing.B) {
	// Virtual cost of a remote 4 KB fault, measured once; b.N loops the
	// measurement to satisfy the benchmark contract.
	var vus float64
	for i := 0; i < b.N; i++ {
		cl := filaments.New(filaments.Config{Nodes: 2, Protocol: filaments.ImplicitInvalidate})
		addr := cl.AllocOwned(8, 0)
		_, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
			if rt.ID() == 0 {
				rt.DSM().WriteF64(e.Thread(), addr, 1)
				e.Barrier()
				e.Barrier()
				return
			}
			e.Barrier()
			t0 := rt.Node().Now()
			_ = rt.DSM().ReadF64(e.Thread(), addr)
			vus = rt.Node().Now().Sub(t0).Microseconds()
			e.Barrier()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(vus, "vµs/fault")
}

// --- Figures 10-12 and the ablations, via the bench registry ---

func BenchmarkFig10JacobiBreakdown(b *testing.B) {
	var rep *filaments.Report
	for i := 0; i < b.N; i++ {
		rep, _, _ = jacobi.DF(jacobi.Config{N: 128, Iters: 60, Nodes: 8})
	}
	report(b, rep)
}

func BenchmarkFig11JacobiWriteInvalidate(b *testing.B) {
	var rep *filaments.Report
	for i := 0; i < b.N; i++ {
		rep, _, _ = jacobi.DF(jacobi.Config{
			N: 128, Iters: 60, Nodes: 4, Protocol: filaments.WriteInvalidate,
		})
	}
	report(b, rep)
}

func BenchmarkFig12JacobiSinglePool(b *testing.B) {
	var rep *filaments.Report
	for i := 0; i < b.N; i++ {
		rep, _, _ = jacobi.DF(jacobi.Config{N: 128, Iters: 60, Nodes: 4, SinglePool: true})
	}
	report(b, rep)
}

// BenchmarkExperiments runs every registered dfbench experiment at quick
// scale, making `go test -bench` regenerate all tables end to end.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.All() {
		e := e
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Run(io.Discard, bench.Options{Quick: true})
			}
		})
	}
}

// --- Extensions: merge sort and recursive FFT (paper §2.3) ---

func BenchmarkExtMergesortDF(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _, _ = mergesort.DF(mergesort.Config{N: 1 << 13, Leaf: 512, Nodes: p})
		}
		report(b, rep)
	})
}

func BenchmarkExtFFTDF(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _, _, _ = fft.DF(fft.Config{N: 1 << 12, Leaf: 256, Nodes: p})
		}
		report(b, rep)
	})
}

// BenchmarkUDPBarrier is the real binding's barrier layer benchmark: one
// op is one barrier across a 4-node loopback UDP cluster, with allocs/op
// summed over every node.
func BenchmarkUDPBarrier(b *testing.B) {
	cl, err := filaments.NewUDPCluster(filaments.UDPConfig{Nodes: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	run, err := cl.StartRun(filaments.UDPRunConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := run.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		for i := 0; i < b.N; i++ {
			e.Barrier()
		}
	}); err != nil {
		b.Fatal(err)
	}
}
