package filaments_test

import (
	"math"
	"testing"

	"filaments"
	"filaments/internal/apps/jacobi"
	"filaments/internal/apps/quadrature"
)

// TestUDPJacobiMatchesReference runs the DF Jacobi program on the
// real-time binding — four nodes, each a set of goroutines with its own
// UDP endpoint on loopback — and requires the result to match the plain
// sequential reference exactly: both compute 0.25*(up+down+left+right)
// over identical inputs in identical order, so every float64 is
// bitwise-equal.
func TestUDPJacobiMatchesReference(t *testing.T) {
	const n, iters, nodes = 64, 8, 4
	rep, grid, _, err := jacobi.DFUDP(jacobi.Config{N: n, Iters: iters, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	want := jacobi.Reference(n, iters)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if grid[i][j] != want[i][j] {
				t.Fatalf("grid[%d][%d] = %v, want %v", i, j, grid[i][j], want[i][j])
			}
		}
	}
	if rep.Elapsed <= 0 {
		t.Fatal("report has no elapsed time")
	}
	var faults int64
	for _, nr := range rep.PerNode {
		faults += nr.DSM.ReadFaults + nr.DSM.WriteFaults
	}
	if faults == 0 {
		t.Fatal("no DSM faults: the grid never moved between nodes")
	}
}

// TestUDPQuadratureMatchesReference runs the fork/join quadrature program
// over the real-time binding with work stealing on. Steal races make the
// summation order nondeterministic, so the area is compared to the
// sequential reference within a rounding tolerance rather than exactly.
func TestUDPQuadratureMatchesReference(t *testing.T) {
	cfg := quadrature.Config{Nodes: 4, MaxDepth: 8}
	rep, got, err := quadrature.DFUDP(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := quadrature.Reference(cfg)
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("area = %v, want %v (diff %v)", got, want, got-want)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("report has no elapsed time")
	}
}

// redirectProgram exercises the DSM stale-owner redirect path: node 1
// takes ownership of a page from node 0, then node 2 (whose page table
// still names node 0) faults — node 0 answers with a redirect and node 2
// chases it to node 1. The returned program runs identically on both
// bindings; got receives node 2's read.
func redirectProgram(a filaments.Addr, got *float64) filaments.Program {
	return func(rt *filaments.Runtime, e *filaments.Exec) {
		if rt.ID() == 1 {
			e.WriteF64(a, 42) // migrate ownership 0 -> 1
		}
		e.Barrier()
		if rt.ID() == 2 {
			*got = e.ReadF64(a)
		}
		e.Barrier()
	}
}

// TestRedirectChaseSim drives redirectProgram through the simulation
// binding and checks the redirect was taken.
func TestRedirectChaseSim(t *testing.T) {
	cl := filaments.New(filaments.Config{Nodes: 3, Protocol: filaments.Migratory})
	a := cl.AllocOwned(8, 0)
	var got float64
	if _, err := cl.Run(redirectProgram(a, &got)); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("node 2 read %v, want 42", got)
	}
	if cl.Runtime(2).DSM().Stats().Redirected == 0 {
		t.Fatal("node 2 never chased a redirect")
	}
}

// TestRedirectChaseUDP drives the identical program through the real-time
// binding: the redirect crosses real UDP sockets.
func TestRedirectChaseUDP(t *testing.T) {
	run, err := startCluster(t, 3).StartRun(filaments.UDPRunConfig{Protocol: filaments.Migratory})
	if err != nil {
		t.Fatal(err)
	}
	a := run.AllocOwned(8, 0)
	var got float64
	if _, err := run.Run(redirectProgram(a, &got)); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("node 2 read %v, want 42", got)
	}
	if run.DSM(2).Stats().Redirected == 0 {
		t.Fatal("node 2 never chased a redirect")
	}
}

// TestUDPClusterBarrierAndDSM is a minimal cross-binding sanity check:
// writes on one node become visible on another after a barrier.
func TestUDPClusterBarrierAndDSM(t *testing.T) {
	run, err := startCluster(t, 2).StartRun(filaments.UDPRunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a := run.AllocOwned(8, 0)
	var got float64
	_, err = run.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		if rt.ID() == 0 {
			e.WriteF64(a, 42)
		}
		e.Barrier()
		if rt.ID() == 1 {
			got = e.ReadF64(a)
		}
		e.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("node 1 read %v, want 42", got)
	}
}
