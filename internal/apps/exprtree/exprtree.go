// Package exprtree implements the paper's binary expression tree
// experiment (§4.4, Figure 7): a balanced binary tree of height h whose
// leaves are n×n matrices and whose interior operators are matrix
// multiplication. The tree is traversed in parallel; each multiplication
// is sequential.
//
// The DF program uses fork/join filaments over the DSM with the migratory
// protocol: every matrix (leaf or intermediate result) is one page group,
// so it moves to the node that needs it in a single request. Parallelism
// begins at a single root filament, so the DF program sends many more
// messages than the CG program, whose combining tree moves exactly 2(p-1)
// matrices.
//
// Speedup is capped by tail-end imbalance: near the root there are fewer
// multiplications than nodes. For height 7 the cap is 127/33 = 3.85 on 4
// nodes and 127/18 = 7.06 on 8 (the paper's numbers).
package exprtree

import (
	"filaments"
	"filaments/internal/cost"
	"filaments/internal/dsm"
	"filaments/internal/msg"
	"filaments/internal/simnet"
)

// Config parameterizes a run.
type Config struct {
	// Height is the tree height: 2^Height leaves, 2^Height - 1
	// multiplications (the paper uses 7).
	Height int
	// N is the matrix dimension (the paper uses 70).
	N int
	// Nodes is the cluster size.
	Nodes int
	// Stealing enables dynamic load balancing in the DF variant. The
	// paper argues it does not pay for balanced trees, so the default is
	// off.
	Stealing bool
	// Protocol for the DF variant. The zero value selects the paper's
	// choice for this program, migratory.
	Protocol filaments.Protocol
	// Seed for the simulation.
	Seed int64
	// Tracer, when non-nil, records kernel trace events from the DF
	// variant.
	Tracer *filaments.Tracer
	// Monitor, when non-nil, observes the DF variant's DSM accesses and
	// synchronization events (the cmd/dfcheck seam).
	Monitor filaments.Monitor
	// MirageWindow overrides the Mirage anti-thrashing window in the DF
	// variant: 0 keeps the model default, negative disables it.
	MirageWindow filaments.Duration
}

func (c *Config) defaults() {
	if c.Height == 0 {
		c.Height = 7
	}
	if c.N == 0 {
		c.N = 70
	}
	if c.Nodes == 0 {
		c.Nodes = 1
	}
}

// leaf gives deterministic leaf matrix values; kept small so products stay
// exactly representable.
func leaf(idx, i, j, n int) float64 {
	return float64((i+3*j+7*idx)%5) - 2
}

func leafMatrix(idx, n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = leaf(idx, i, j, n)
		}
	}
	return m
}

func multiply(a, b [][]float64) [][]float64 {
	n := len(a)
	c := make([][]float64, n)
	for i := 0; i < n; i++ {
		c[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a[i][k] * b[k][j]
			}
			c[i][j] = s
		}
	}
	return c
}

// mulCost is the virtual time of one n×n matrix multiplication.
func mulCost(n int) filaments.Duration {
	return filaments.Duration(n) * filaments.Duration(n) * filaments.Duration(n) * cost.ExprTreeMACost
}

// Reference evaluates the tree in plain Go.
func Reference(cfg Config) [][]float64 {
	cfg.defaults()
	return refNode(1, cfg.Height, cfg.N)
}

// refNode evaluates heap-numbered tree node k at the given remaining
// height (0 = leaf).
func refNode(k, height, n int) [][]float64 {
	if height == 0 {
		return leafMatrix(k, n)
	}
	return multiply(refNode(2*k, height-1, n), refNode(2*k+1, height-1, n))
}

// Sequential runs the distinct single-node program.
func Sequential(cfg Config) (*filaments.Report, [][]float64) {
	cfg.defaults()
	var out [][]float64
	c := filaments.New(filaments.Config{Nodes: 1, Seed: cfg.Seed})
	rep, err := c.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		var eval func(k, h int) [][]float64
		eval = func(k, h int) [][]float64 {
			if h == 0 {
				return leafMatrix(k, cfg.N)
			}
			l := eval(2*k, h-1)
			r := eval(2*k+1, h-1)
			e.Compute(mulCost(cfg.N))
			return multiply(l, r)
		}
		out = eval(1, cfg.Height)
	})
	if err != nil {
		panic(err)
	}
	return rep, out
}

// CoarseGrain runs the two-phase message-passing program: leaves are split
// evenly, each node reduces its share to one matrix, then a combining tree
// multiplies pairs, halving the active nodes each level — 2(p-1) matrix
// transfers in total.
func CoarseGrain(cfg Config) (*filaments.Report, [][]float64) {
	cfg.defaults()
	p := cfg.Nodes
	if p == 1 {
		return Sequential(cfg)
	}
	leaves := 1 << cfg.Height
	if leaves%p != 0 {
		// Uneven splits complicate the combining tree; the paper used
		// p | leaves configurations.
		panic("exprtree: CoarseGrain requires nodes to divide the leaf count")
	}
	var out [][]float64
	cl := filaments.New(filaments.Config{Nodes: p, Seed: cfg.Seed})
	const tagMat = 1
	matBytes := cfg.N * cfg.N * 8
	rep, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		me := rt.ID()
		mx := msg.New(rt.Node(), rt.Endpoint())
		per := leaves / p
		// Phase 1: reduce my span of leaves. The leaves of the full tree
		// are heap nodes 2^h .. 2^(h+1)-1; my span is a subtree product.
		first := (1 << cfg.Height) + me*per
		cur := leafMatrix(first, cfg.N)
		for i := 1; i < per; i++ {
			next := leafMatrix(first+i, cfg.N)
			e.Compute(mulCost(cfg.N))
			cur = multiply(cur, next)
		}
		// Phase 2: combining tree; half the active nodes drop out each
		// level (tail-end imbalance handled here, as in the paper).
		for stride := 1; stride < p; stride <<= 1 {
			if me%(2*stride) != 0 {
				mx.Send(simnet.NodeID(me-stride), tagMat, cur, matBytes)
				break
			}
			peer := me + stride
			if peer < p {
				right := mx.Recv(e.Thread(), simnet.NodeID(peer), tagMat).([][]float64)
				e.Compute(mulCost(cfg.N))
				cur = multiply(cur, right)
			}
		}
		if me == 0 {
			out = cur
		}
	})
	if err != nil {
		panic(err)
	}
	return rep, out
}

const fnEval = 1

// DF runs the fork/join Filaments program over the DSM with the migratory
// protocol. Matrix slots — 2^(h+1)-1 of them, one per tree node — live in
// shared memory as single page groups; the master initializes the leaves,
// and each interior filament multiplies its children's slots into its own.
func DF(cfg Config) (*filaments.Report, [][]float64, *filaments.Cluster) {
	cfg.defaults()
	n, h, p := cfg.N, cfg.Height, cfg.Nodes
	cl := filaments.New(filaments.Config{
		Nodes:        p,
		Seed:         cfg.Seed,
		Protocol:     cfg.Protocol, // zero value is Migratory, the app default
		Stealing:     cfg.Stealing,
		WakeFront:    true,
		Tracer:       cfg.Tracer,
		Monitor:      cfg.Monitor,
		MirageWindow: cfg.MirageWindow,
	})
	matBytes := int64(n) * int64(n) * 8
	pagesPer := int((matBytes + dsm.PageSize - 1) / dsm.PageSize)
	slots := make([]filaments.Matrix, 1<<(h+1))
	for k := 1; k < 1<<(h+1); k++ {
		base := cl.Space().Alloc(matBytes, dsm.AllocOpts{Owner: 0, GroupPages: pagesPer})
		slots[k] = filaments.Matrix{Base: base, Rows: n, Cols: n}
	}
	rep, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		slotRange := func(k int) filaments.Range {
			return filaments.Range{Lo: slots[k].Addr(0, 0), Hi: slots[k].Addr(n-1, n-1) + 8}
		}
		if rt.ID() == 0 {
			// Master initializes the leaf matrices (local writes).
			for k := 1 << h; k < 1<<(h+1); k++ {
				e.NoteWrite(slotRange(k))
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						rt.DSM().WriteF64(e.Thread(), slots[k].Addr(i, j), leaf(k, i, j, n))
					}
				}
			}
		}
		// eval(k, height): compute slot k. Leaves are already material.
		eval := func(e *filaments.Exec, a filaments.Args) float64 {
			k, hh := int(a[0]), int(a[1])
			if hh == 0 {
				return 1
			}
			rtl := e.Runtime()
			j := rtl.NewJoin()
			if hh > 1 {
				rtl.Fork(e, j, fnEval, filaments.Args{int64(2 * k), int64(hh - 1)})
				rtl.Fork(e, j, fnEval, filaments.Args{int64(2*k + 1), int64(hh - 1)})
				j.Wait(e)
			}
			l, r, dst := slots[2*k], slots[2*k+1], slots[k]
			for i := 0; i < n; i++ {
				for jj := 0; jj < n; jj++ {
					var s float64
					for kk := 0; kk < n; kk++ {
						s += e.ReadF64(l.Addr(i, kk)) * e.ReadF64(r.Addr(kk, jj))
					}
					e.WriteF64(dst.Addr(i, jj), s)
				}
			}
			e.Compute(mulCost(n))
			return 1
		}
		rt.RegisterFJ(fnEval, eval)
		// Exact access describer for the memory-model checker: an interior
		// filament reads its children's slots and writes its own; a leaf
		// filament (hh == 0) touches nothing.
		rt.RegisterFJRanges(fnEval, func(a filaments.Args) (reads, writes []filaments.Range) {
			k, hh := int(a[0]), int(a[1])
			if hh == 0 {
				return nil, nil
			}
			return []filaments.Range{slotRange(2 * k), slotRange(2*k + 1)},
				[]filaments.Range{slotRange(k)}
		})
		// The initial barrier ensures the leaves exist before traversal.
		e.Barrier()
		rt.RunForkJoin(e, fnEval, filaments.Args{1, int64(h)})
	})
	if err != nil {
		panic(err)
	}
	return rep, cl.PeekMatrix(slots[1]), cl
}
