package filaments_test

import (
	"runtime"
	"testing"

	"filaments"
)

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// barrierAllocs runs k measured barriers on a fresh run of cl and returns
// the process's allocations per barrier, summed over every node: the
// tournament's arrive requests, the release broadcast, and both ends of
// each message through rtnode and udptrans.
func barrierAllocs(t testing.TB, cl *filaments.UDPCluster, k int) float64 {
	run, err := cl.StartRun(filaments.UDPRunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 uint64
	_, err = run.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		for i := 0; i < 100; i++ { // warm pools, free lists and maps
			e.Barrier()
		}
		if rt.ID() == 0 {
			m0 = mallocs()
		}
		for i := 0; i < k; i++ {
			e.Barrier()
		}
		if rt.ID() == 0 {
			m1 = mallocs()
		}
		e.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return float64(m1-m0) / float64(k)
}

// maxBarrierAllocs bounds the allocations of one barrier across a 4-node
// UDP cluster. The measured value is 16.1 on linux/amd64: per arrive
// request, the async request handle, its goroutine and the boxed
// message; per decoded arrive or release, the boxed value. The gate
// leaves headroom for runtime noise, not for a per-message allocation to
// creep back (one per datagram would add 6).
const maxBarrierAllocs = 20

// TestUDPBarrierAllocations is the real binding's per-barrier allocation
// gate.
func TestUDPBarrierAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cl := startCluster(t, 4)
	per := barrierAllocs(t, cl, 1000)
	t.Logf("%.1f allocs per barrier across 4 nodes", per)
	if per > maxBarrierAllocs {
		t.Fatalf("%.1f allocs per barrier, want <= %d", per, maxBarrierAllocs)
	}
}
