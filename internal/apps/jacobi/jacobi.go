// Package jacobi implements the paper's Jacobi iteration experiment (§4.2,
// Figures 5, 10, 11, 12): solving Laplace's equation on an n×n grid by
// repeatedly replacing each interior point with the average of its four
// neighbours, double-buffered, with a convergence reduction every
// iteration.
//
// The DF program uses iterative filaments — one per interior point — in
// three pools per node: the strip's top row, its bottom row, and the
// interior. Only the top and bottom pools fault (on the neighbouring
// strip's edge page), so running them first frontloads the faults and the
// interior pool's computation overlaps the fetches completely. The default
// protocol is implicit-invalidate: the read-only copies of edge pages die
// at the per-iteration reduction, so no invalidation traffic exists.
//
// Both grids are initialized by (and initially owned by) the master; the
// other nodes acquire their strips by ordinary write faults during the
// first iterations, which is the paper's "master services all the initial
// page requests".
package jacobi

import (
	"filaments"
	"filaments/internal/cost"
	"filaments/internal/msg"
	"filaments/internal/simnet"
)

// Config parameterizes a run.
type Config struct {
	// N is the grid dimension (the paper uses 256).
	N int
	// Iters is the number of iterations (the paper converged after 360
	// with epsilon 1e-3).
	Iters int
	// Nodes is the cluster size.
	Nodes int
	// Protocol for the DF variant; default implicit-invalidate (Figure 5).
	// Write-invalidate reproduces Figure 11.
	Protocol filaments.Protocol
	// SinglePool disables the three-pool structure (and with it the
	// overlap of communication and computation), reproducing Figure 12.
	SinglePool bool
	// UseMigratory forces the migratory protocol (the Protocol field's
	// zero value means "app default", i.e. implicit-invalidate).
	UseMigratory bool
	// AutoPools lets the runtime cluster filaments into pools by fault
	// signature instead of using the hand-written top/bottom/interior
	// assignment (the paper's future-work automation).
	AutoPools bool
	// LossRate injects network frame loss into the DF variant.
	LossRate float64
	// Seed for the simulation.
	Seed int64
	// Tracer, when non-nil, records kernel trace events from the DF
	// variants (sim and UDP).
	Tracer *filaments.Tracer
	// Monitor, when non-nil, observes the DF variants' DSM accesses and
	// synchronization events (the cmd/dfcheck seam).
	Monitor filaments.Monitor
	// MirageWindow overrides the Mirage anti-thrashing window in the DF
	// variants: 0 keeps the model default, negative disables it.
	MirageWindow filaments.Duration
	// Tuning collects the wall-clock wire-path knobs for the UDP variants
	// (codec, page diffs, event batching); ignored by the simulation.
	Tuning filaments.UDPTuning
}

func (c *Config) defaults() {
	if c.N == 0 {
		c.N = 256
	}
	if c.Iters == 0 {
		c.Iters = 360
	}
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.Protocol == filaments.Migratory {
		c.Protocol = filaments.ImplicitInvalidate
	}
}

// boundary gives the fixed boundary values: a hot top edge, cold sides and
// bottom.
func boundary(i, j, n int) float64 {
	if i == 0 {
		return 100
	}
	return 0
}

// Reference runs the iteration in plain Go for verification.
func Reference(n, iters int) [][]float64 {
	src, dst := freshGrids(n)
	for it := 0; it < iters; it++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				dst[i][j] = 0.25 * (src[i-1][j] + src[i+1][j] + src[i][j-1] + src[i][j+1])
			}
		}
		src, dst = dst, src
	}
	return src
}

func freshGrids(n int) (src, dst [][]float64) {
	src = make([][]float64, n)
	dst = make([][]float64, n)
	for i := 0; i < n; i++ {
		src[i] = make([]float64, n)
		dst[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			src[i][j] = boundary(i, j, n)
			dst[i][j] = boundary(i, j, n)
		}
	}
	return src, dst
}

// Sequential runs the distinct single-node program.
func Sequential(cfg Config) (*filaments.Report, [][]float64) {
	cfg.defaults()
	n, iters := cfg.N, cfg.Iters
	var out [][]float64
	c := filaments.New(filaments.Config{Nodes: 1, Seed: cfg.Seed})
	rep, err := c.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		src, dst := freshGrids(n)
		for it := 0; it < iters; it++ {
			for i := 1; i < n-1; i++ {
				for j := 1; j < n-1; j++ {
					dst[i][j] = 0.25 * (src[i-1][j] + src[i+1][j] + src[i][j-1] + src[i][j+1])
				}
				e.Compute(filaments.Duration(n-2) * cost.JacobiPointCost)
			}
			src, dst = dst, src
		}
		out = src
	})
	if err != nil {
		panic(err)
	}
	return rep, out
}

// CoarseGrain runs the explicit message-passing program: each node holds
// its strip plus ghost rows and, per iteration, sends edges, updates the
// interior, receives edges, updates the edge rows, and checks termination —
// the paper's maximal-overlap structure.
func CoarseGrain(cfg Config) (*filaments.Report, [][]float64) {
	cfg.defaults()
	n, iters, p := cfg.N, cfg.Iters, cfg.Nodes
	if p == 1 {
		return Sequential(cfg)
	}
	var out [][]float64
	cl := filaments.New(filaments.Config{Nodes: p, Seed: cfg.Seed})
	const (
		tagDown = iota // edge row travelling to the higher-numbered node
		tagUp
		tagGather
	)
	rowBytes := n * 8
	rep, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		me := rt.ID()
		mx := msg.New(rt.Node(), rt.Endpoint())
		lo, hi := computeRange(me, n, p)
		// Local rows lo-1 .. hi: strip plus ghost rows.
		rows := hi - lo + 2
		src := make([][]float64, rows)
		dst := make([][]float64, rows)
		for r := 0; r < rows; r++ {
			src[r] = make([]float64, n)
			dst[r] = make([]float64, n)
			for j := 0; j < n; j++ {
				src[r][j] = boundary(lo-1+r, j, n)
				dst[r][j] = boundary(lo-1+r, j, n)
			}
		}
		up, down := me-1, me+1
		update := func(r int) { // r is a local row index
			for j := 1; j < n-1; j++ {
				dst[r][j] = 0.25 * (src[r-1][j] + src[r+1][j] + src[r][j-1] + src[r][j+1])
			}
			e.Compute(filaments.Duration(n-2) * cost.JacobiPointCost)
		}
		for it := 0; it < iters; it++ {
			// Send edges.
			if up >= 0 {
				mx.Send(simnet.NodeID(up), tagUp, src[1], rowBytes)
			}
			if down < p {
				mx.Send(simnet.NodeID(down), tagDown, src[rows-2], rowBytes)
			}
			// Update interior points (overlapping the edge exchange).
			for r := 2; r < rows-2; r++ {
				update(r)
			}
			// Receive edges.
			if up >= 0 {
				copy(src[0], mx.Recv(e.Thread(), simnet.NodeID(up), tagDown).([]float64))
			}
			if down < p {
				copy(src[rows-1], mx.Recv(e.Thread(), simnet.NodeID(down), tagUp).([]float64))
			}
			// Update edge rows.
			update(1)
			if rows-2 != 1 {
				update(rows - 2)
			}
			// Check for termination.
			e.Barrier()
			src, dst = dst, src
		}
		// Gather the result at the master (untimed in the paper; kept
		// after the final barrier here as well).
		if me == 0 {
			out = make([][]float64, n)
			for i := 0; i < n; i++ {
				out[i] = make([]float64, n)
				for j := 0; j < n; j++ {
					out[i][j] = boundary(i, j, n)
				}
			}
			for r := 1; r <= hi-lo; r++ {
				copy(out[lo-1+r], src[r])
			}
			for k := 1; k < p; k++ {
				klo, khi := computeRange(k, n, p)
				part := mx.Recv(e.Thread(), simnet.NodeID(k), tagGather).([][]float64)
				for r := 0; r < khi-klo; r++ {
					copy(out[klo+r], part[r])
				}
			}
		} else {
			mx.Send(0, tagGather, src[1:rows-1], (hi-lo)*rowBytes)
		}
	})
	if err != nil {
		panic(err)
	}
	return rep, out
}

// DF runs the Distributed Filaments program: iterative filaments, one per
// interior point, three pools per node (or one with cfg.SinglePool).
func DF(cfg Config) (*filaments.Report, [][]float64, *filaments.Cluster) {
	cfg.defaults()
	n, iters, p := cfg.N, cfg.Iters, cfg.Nodes
	proto := cfg.Protocol
	if cfg.UseMigratory {
		proto = filaments.Migratory
	}
	cl := filaments.New(filaments.Config{
		Nodes:        p,
		Seed:         cfg.Seed,
		Protocol:     proto,
		LossRate:     cfg.LossRate,
		Tracer:       cfg.Tracer,
		Monitor:      cfg.Monitor,
		MirageWindow: cfg.MirageWindow,
	})
	ga := cl.AllocMatrixOwned(n, n, 0)
	gb := cl.AllocMatrixOwned(n, n, 0)
	rep, err := cl.Run(dfProgram(cfg, ga, gb))
	if err != nil {
		panic(err)
	}
	final := ga
	if iters%2 == 1 {
		final = gb
	}
	return rep, cl.PeekMatrix(final), cl
}

// dfProgram is the DF node program shared by every binding: the simulated
// cluster (DF) and the real-time UDP cluster (DFUDP) run exactly this
// code. cfg must already be defaulted.
func dfProgram(cfg Config, ga, gb filaments.Matrix) filaments.Program {
	n, iters, p := cfg.N, cfg.Iters, cfg.Nodes
	return func(rt *filaments.Runtime, e *filaments.Exec) {
		me := rt.ID()
		d := rt.DSM()
		if me == 0 {
			e.NoteWrite(filaments.Range{Lo: ga.Addr(0, 0), Hi: ga.Addr(n-1, n-1) + 8})
			e.NoteWrite(filaments.Range{Lo: gb.Addr(0, 0), Hi: gb.Addr(n-1, n-1) + 8})
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					v := boundary(i, j, n)
					d.WriteF64(e.Thread(), ga.Addr(i, j), v)
					d.WriteF64(e.Thread(), gb.Addr(i, j), v)
				}
			}
		}
		e.Barrier()

		lo, hi := computeRange(me, n, p)
		// Node-local iteration state captured by the filament function:
		// the grids swap every sweep.
		state := struct {
			src, dst filaments.Matrix
			maxDiff  float64
		}{ga, gb, 0}
		point := func(e *filaments.Exec, a filaments.Args) {
			i, j := int(a[0]), int(a[1])
			v := 0.25 * (e.ReadF64(state.src.Addr(i-1, j)) +
				e.ReadF64(state.src.Addr(i+1, j)) +
				e.ReadF64(state.src.Addr(i, j-1)) +
				e.ReadF64(state.src.Addr(i, j+1)))
			if d := v - e.ReadF64(state.src.Addr(i, j)); d > state.maxDiff {
				state.maxDiff = d
			} else if -d > state.maxDiff {
				state.maxDiff = -d
			}
			e.WriteF64(state.dst.Addr(i, j), v)
			e.Compute(cost.JacobiPointCost)
		}
		addRows := func(pool *filaments.Pool, r0, r1 int) {
			for i := r0; i < r1; i++ {
				for j := 1; j < n-1; j++ {
					pool.Add(e, point, filaments.Args{int64(i), int64(j)})
				}
			}
		}
		// Pool boundaries follow *page* boundaries, not single rows: the
		// strip's first and last pages hold the rows that share a page
		// with data a neighbour reads, so every filament that can fault —
		// on a read of the neighbour's edge or on a write-upgrade of a
		// downgraded edge page under write-invalidate — lives in the top
		// or bottom pool, and the interior pool never faults. This is the
		// paper's rule that "the filaments within a node should be
		// assigned to pools so that faults are minimized and good overlap
		// ... is achieved".
		rowsPerPage := dsmPageRows(n)
		topEnd := lo + rowsPerPage - lo%rowsPerPage
		botStart := hi - 1 - (hi-1)%rowsPerPage
		if cfg.AutoPools {
			// The runtime clusters by fault signature: every filament
			// declares the rows it touches and filaments sharing the same
			// page set land in one pool.
			for i := lo; i < hi; i++ {
				for j := 1; j < n-1; j++ {
					rt.AddAuto(e, point, filaments.Args{int64(i), int64(j)},
						ga.Addr(i-1, 0), ga.Addr(i+1, 0), ga.Addr(i, 0),
						gb.Addr(i-1, 0), gb.Addr(i+1, 0), gb.Addr(i, 0))
				}
			}
		} else if cfg.SinglePool || topEnd >= botStart || hi-lo < 3 {
			all := rt.NewPool("all")
			addRows(all, lo, hi)
		} else {
			// The faulting pools are created first so the very first
			// sweep already starts them first; afterwards the pool stack
			// keeps the faulting pools frontloaded.
			top := rt.NewPool("top")
			bottom := rt.NewPool("bottom")
			interior := rt.NewPool("interior")
			addRows(top, lo, topEnd)
			addRows(bottom, botStart, hi)
			addRows(interior, topEnd, botStart)
		}
		for it := 0; it < iters; it++ {
			state.maxDiff = 0
			// Declared extents for the memory-model checker: this sweep
			// reads its strip plus the neighbours' edge rows of src and
			// writes its own strip of dst.
			e.NoteRead(filaments.Range{Lo: state.src.Addr(lo-1, 0), Hi: state.src.Addr(hi, n-1) + 8})
			e.NoteWrite(filaments.Range{Lo: state.dst.Addr(lo, 0), Hi: state.dst.Addr(hi-1, n-1) + 8})
			rt.RunPools(e)
			// The convergence reduction doubles as the barrier (and, under
			// implicit-invalidate, drops the edge-page copies). The paper's
			// run converged (< 1e-3) at exactly its 360 iterations; we run
			// the configured count and report the residual to the caller
			// through the grid itself.
			e.Reduce(state.maxDiff, filaments.Max)
			state.src, state.dst = state.dst, state.src
		}
	}
}

// DFUDP runs the same DF program on a single-process real-time cluster:
// every node is a set of goroutines with its own UDP endpoint on
// loopback. The cluster hosts this one run and is closed before DFUDP
// returns; the finished run is returned for inspection. The grid is
// bitwise-identical to Reference's (both evaluate
// 0.25*(up+down+left+right) over identical inputs in identical order),
// so callers verify with exact comparison.
func DFUDP(cfg Config) (*filaments.UDPReport, [][]float64, *filaments.UDPRun, error) {
	cfg.defaults()
	proto := cfg.Protocol
	if cfg.UseMigratory {
		proto = filaments.Migratory
	}
	cl, err := filaments.NewUDPCluster(filaments.UDPConfig{Nodes: cfg.Nodes, Tuning: cfg.Tuning})
	if err != nil {
		return nil, nil, nil, err
	}
	run, err := cl.StartRun(filaments.UDPRunConfig{
		Protocol:     proto,
		Tracer:       cfg.Tracer,
		Monitor:      cfg.Monitor,
		MirageWindow: cfg.MirageWindow,
	})
	if err != nil {
		cl.Close() //nolint:errcheck // the start error is the one to report
		return nil, nil, nil, err
	}
	rep, grid, err := DFOn(cfg, run)
	if cerr := cl.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return rep, grid, run, nil
}

// DFOn runs the DF program as one job on a live cluster's run
// (internal/cluster/daemon submits jobs here). Cluster-wide settings —
// protocol, tracing, wire tuning — were fixed when the run was started;
// cfg supplies the problem shape. The grid is bitwise-identical to
// Reference's.
func DFOn(cfg Config, run *filaments.UDPRun) (*filaments.UDPReport, [][]float64, error) {
	cfg.Nodes = run.Nodes()
	cfg.defaults()
	n := cfg.N
	ga := run.AllocMatrixOwned(n, n, 0)
	gb := run.AllocMatrixOwned(n, n, 0)
	rep, err := run.Run(dfProgram(cfg, ga, gb))
	if err != nil {
		return rep, nil, err
	}
	final := ga
	if cfg.Iters%2 == 1 {
		final = gb
	}
	return rep, run.PeekMatrix(final), nil
}

// DFNode runs the same DF program as one node of a multi-process cluster
// (cmd/dfnode): every process calls this with its own UDPNode and the
// identical Config. The result is verified in-program — each node checks
// its n/p-row strip of the final grid against the sequential reference and
// the per-node mismatch counts are combined by a Sum reduction (the sum of
// small integers is exact and order-independent in float64), so every node
// returns the cluster-wide mismatch total.
func DFNode(cfg Config, u *filaments.UDPNode) (*filaments.UDPNodeReport, int, error) {
	cfg.defaults()
	n, p := cfg.N, cfg.Nodes
	ga := u.AllocMatrixOwned(n, n, 0)
	gb := u.AllocMatrixOwned(n, n, 0)
	prog := dfProgram(cfg, ga, gb)
	var mismatches float64
	rep, err := u.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		prog(rt, e)
		final := ga
		if cfg.Iters%2 == 1 {
			final = gb
		}
		want := Reference(n, cfg.Iters)
		me := rt.ID()
		var bad float64
		for i := me * n / p; i < (me+1)*n/p; i++ {
			for j := 0; j < n; j++ {
				if e.ReadF64(final.Addr(i, j)) != want[i][j] {
					bad++
				}
			}
		}
		mismatches = e.Reduce(bad, filaments.Sum)
	})
	return rep, int(mismatches), err
}

// dsmPageRows returns how many grid rows share one DSM page.
func dsmPageRows(n int) int {
	r := filaments.PageSize / (8 * n)
	if r < 1 {
		r = 1
	}
	return r
}

// computeRange returns the interior rows [lo, hi) node k updates: its
// n/p-row ownership strip intersected with the interior. Strips cover
// whole rows so that, for power-of-two clusters, strip boundaries coincide
// with page boundaries and no page has two writers.
func computeRange(k, n, p int) (int, int) {
	per := n / p
	lo := k * per
	hi := lo + per
	if k == p-1 {
		hi = n
	}
	if lo < 1 {
		lo = 1
	}
	if hi > n-1 {
		hi = n - 1
	}
	return lo, hi
}
