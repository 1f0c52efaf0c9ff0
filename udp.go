package filaments

import (
	"fmt"
	"net"
	"sync"
	"time"

	"filaments/internal/cost"
	"filaments/internal/dsm"
	"filaments/internal/filament"
	"filaments/internal/kernel"
	"filaments/internal/obs"
	"filaments/internal/reduce"
	"filaments/internal/rtnode"
	"filaments/internal/udptrans"
)

// This file is the real-time face of the package: the same DF kernel
// layers (DSM, reductions, filaments) that run inside the deterministic
// simulation are wired to internal/rtnode and internal/udptrans instead,
// so a program runs over real UDP sockets in real goroutines. UDPCluster
// hosts every node in one process (endpoints on loopback); UDPNode hosts
// one node of a multi-process cluster (see cmd/dfnode).
//
// A UDPCluster is built once — its endpoints, sockets, and peers' reply
// caches live until Close — and hosts many UDPRuns, each a complete
// kernel stack (address space, nodes, DSMs, reducers, runtimes) on its
// own service-id lane (rtnode/mux.go), so several jobs can run
// concurrently over the same sockets. Every program runs the same way:
// NewUDPCluster, then StartRun, allocate on the run, Run, Peek the
// results, and Close the cluster when no more runs will start.
//
// Results are exact — the identical kernel code moves the data — but time
// is wall time, so performance depends on the host, not on the paper's
// calibrated cost model.

// UDPConfig describes a single-process UDP cluster. Per-run settings
// (protocol, tracing, and the rest) go in each StartRun's UDPRunConfig.
type UDPConfig struct {
	// Nodes is the cluster size (>= 1). Each node gets its own UDP
	// endpoint on 127.0.0.1.
	Nodes int
	// Tuning collects the wall-clock wire-path knobs.
	Tuning UDPTuning
}

// UDPTuning tunes the real-time wire path. Every knob is cluster-wide:
// all nodes must run the same values, like the protocol choice.
type UDPTuning struct {
	// NoDiffs disables twin-and-diff page shipping, which is on by
	// default under UDP (the simulation keeps whole pages either way, so
	// its byte accounting matches the paper's tables).
	NoDiffs bool
	// BatchWindow coalesces small one-way events per peer into single
	// datagrams, holding each back at most this long. Zero disables
	// batching (the default: a delayed barrier release costs more than a
	// datagram header saves unless events are bursty).
	BatchWindow time.Duration
}

// UDPRunConfig describes one program run on a live UDPCluster.
type UDPRunConfig struct {
	// Protocol is the page consistency protocol (default Migratory).
	Protocol Protocol
	// SharedBytes is the size of the run's shared address space (default
	// 64 MB). Each run has its own address space.
	SharedBytes int64
	// Stealing enables receiver-initiated fork/join load balancing.
	Stealing bool
	// MaxWorkers caps per-node fork/join server threads (default 16).
	MaxWorkers int
	// WakeFront schedules page-arrival wakeups at the front (fork/join
	// setting); it is advisory here — the Go scheduler owns ordering.
	WakeFront bool
	// Model overrides the ledger cost model; nil uses cost.Default.
	Model *CostModel
	// Tracer, when non-nil, records this run's kernel events in wall
	// time.
	Tracer *Tracer
	// Monitor, when non-nil, observes this run's DSM accesses, page
	// transfers, and synchronization events. Under this binding callbacks
	// arrive concurrently from per-node monitor goroutines, so the Monitor
	// must synchronize internally.
	Monitor Monitor
	// MirageWindow overrides the cost model's Mirage anti-thrashing
	// window: 0 keeps the model's default, a negative value disables the
	// window, and a positive value replaces it.
	MirageWindow Duration
}

// UDPNodeReport is one node's accounting after a real-time run.
type UDPNodeReport struct {
	CPU       kernel.Account
	DSM       dsm.Stats
	Transport udptrans.Stats
	Runtime   filament.Stats
}

// UDPReport summarizes a real-time run.
type UDPReport struct {
	// Elapsed is the wall time from Run's start until the last node's main
	// thread finished.
	Elapsed time.Duration
	// PerNode holds each node's counters. Transport counters are
	// endpoint-cumulative: on a run-many cluster they include other runs'
	// traffic (the per-run view is Metrics).
	PerNode []UDPNodeReport
	// Metrics is the run-scoped metric aggregation: every node's counters
	// summed by name, plus the endpoints' counters as the interval delta
	// across the run. On a cluster running jobs concurrently the node
	// counters are exact per-run; the endpoint deltas also include
	// overlapping runs' wire traffic (documented in DESIGN.md §6).
	Metrics []Sample
}

// UDPCluster is a set of live UDP endpoints on loopback hosting DF
// program runs. Create with NewUDPCluster, start each program with
// StartRun (many runs may execute concurrently), and Close when no more
// runs will start.
type UDPCluster struct {
	cfg   UDPConfig
	eps   []*udptrans.Endpoint
	addrs []*net.UDPAddr
	muxes []*rtnode.EventMux

	mu       sync.Mutex
	nextLane uint16
	freed    []uint16
	active   []*UDPRun
	closed   bool
}

// rtOptions configures the real-time binding's endpoints with an
// effectively unbounded retry budget: one logical request keeps one
// sequence number until it is answered, so the receiver's reply cache
// absorbs duplicates and non-idempotent handlers execute exactly once.
// Re-issuing a timed-out call under a fresh sequence number would
// re-execute the handler — a steal grant whose reply was lost would lose
// the stolen filament with it.
func rtOptions(t UDPTuning) udptrans.Options {
	return udptrans.Options{MaxRetries: 1 << 30, BatchWindow: t.BatchWindow}
}

// NewUDPCluster builds a cluster from cfg, opening one UDP endpoint per
// node on 127.0.0.1.
func NewUDPCluster(cfg UDPConfig) (*UDPCluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("filaments: UDPConfig.Nodes must be >= 1")
	}
	c := &UDPCluster{cfg: cfg}
	c.eps = make([]*udptrans.Endpoint, cfg.Nodes)
	c.addrs = make([]*net.UDPAddr, cfg.Nodes)
	c.muxes = make([]*rtnode.EventMux, cfg.Nodes)
	for i := range c.eps {
		ep, err := udptrans.Listen("127.0.0.1:0", rtOptions(cfg.Tuning))
		if err != nil {
			for _, open := range c.eps[:i] {
				open.Close() //nolint:errcheck // best-effort unwind
			}
			return nil, err
		}
		c.eps[i] = ep
		c.addrs[i] = ep.Addr()
		c.muxes[i] = rtnode.NewEventMux(ep)
	}
	return c, nil
}

// Nodes returns the cluster size.
func (c *UDPCluster) Nodes() int { return c.cfg.Nodes }

// Addrs returns every node's endpoint address, indexed by node ID.
func (c *UDPCluster) Addrs() []*net.UDPAddr {
	return append([]*net.UDPAddr(nil), c.addrs...)
}

// Endpoint returns node i's endpoint (the daemon registers its
// membership services on endpoint 0).
func (c *UDPCluster) Endpoint(i int) *udptrans.Endpoint { return c.eps[i] }

// acquireLane hands out a free service-id lane, recycling lanes of
// finished runs so a long-lived daemon never exhausts the lane space.
func (c *UDPCluster) acquireLane() (uint16, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, fmt.Errorf("filaments: UDP cluster is closed")
	}
	if n := len(c.freed); n > 0 {
		lane := c.freed[n-1]
		c.freed = c.freed[:n-1]
		return lane, nil
	}
	if c.nextLane >= rtnode.MaxLanes {
		return 0, fmt.Errorf("filaments: all %d lanes busy", rtnode.MaxLanes)
	}
	lane := c.nextLane
	c.nextLane++
	return lane, nil
}

func (c *UDPCluster) finishRun(r *UDPRun) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, a := range c.active {
		if a == r {
			c.active = append(c.active[:i], c.active[i+1:]...)
			break
		}
	}
	c.freed = append(c.freed, r.lane)
}

// netMetrics aggregates every endpoint's counter registry.
func (c *UDPCluster) netMetrics() []Sample {
	var regs []*obs.Registry
	for _, ep := range c.eps {
		regs = append(regs, ep.Metrics())
	}
	return obs.Aggregate(regs...)
}

// StartRun builds a fresh kernel stack — address space, nodes, DSMs,
// reducers, runtimes — on its own service-id lane over the cluster's
// live endpoints. Runs are independent and may execute concurrently;
// each is used once: allocate, Run, Peek.
func (c *UDPCluster) StartRun(rc UDPRunConfig) (*UDPRun, error) {
	if rc.SharedBytes == 0 {
		rc.SharedBytes = 64 << 20
	}
	if rc.MaxWorkers == 0 {
		rc.MaxWorkers = 16
	}
	lane, err := c.acquireLane()
	if err != nil {
		return nil, err
	}
	r := &UDPRun{c: c, lane: lane}
	if rc.Model != nil {
		r.model = *rc.Model
	} else {
		r.model = cost.Default()
	}
	switch {
	case rc.MirageWindow > 0:
		r.model.MirageWindow = rc.MirageWindow
	case rc.MirageWindow < 0:
		r.model.MirageWindow = 0
	}
	r.space = dsm.NewSpace(rc.SharedBytes)
	if rc.Monitor != nil {
		r.space.SetMonitor(rc.Monitor)
	}
	r.netBase = c.netMetrics()
	// Same construction order as the simulated Cluster: every DSM exists
	// before the first allocation.
	for i := 0; i < c.cfg.Nodes; i++ {
		node := rtnode.NewNode(kernel.NodeID(i), &r.model)
		if rc.Tracer != nil {
			node.Obs().SetTracer(rc.Tracer)
		}
		tr := rtnode.NewTransportOn(c.muxes[i], node, lane)
		tr.SetPeers(c.addrs)
		d := dsm.New(node, tr, r.space, rc.Protocol)
		d.SetDiffs(!c.cfg.Tuning.NoDiffs)
		d.WakeFront = rc.WakeFront
		red := reduce.New(node, tr, d, c.cfg.Nodes)
		rt := filament.New(node, tr, d, red, c.cfg.Nodes)
		rt.Stealing = rc.Stealing
		rt.MaxWorkers = rc.MaxWorkers
		r.nodes = append(r.nodes, node)
		r.trs = append(r.trs, tr)
		r.dsms = append(r.dsms, d)
		r.reds = append(r.reds, red)
		r.rts = append(r.rts, rt)
	}
	c.mu.Lock()
	c.active = append(c.active, r)
	c.mu.Unlock()
	return r, nil
}

// Metrics aggregates the cluster's live counters: every endpoint's
// registry plus every active run's node registries, summed by name,
// sorted by name. Safe to call at any time from any goroutine; counters
// are race-free.
func (c *UDPCluster) Metrics() []Sample {
	c.mu.Lock()
	runs := append([]*UDPRun(nil), c.active...)
	c.mu.Unlock()
	var regs []*obs.Registry
	for _, ep := range c.eps {
		regs = append(regs, ep.Metrics())
	}
	for _, r := range runs {
		for _, n := range r.nodes {
			regs = append(regs, n.Obs().Reg)
		}
	}
	return obs.Aggregate(regs...)
}

// Close shuts the cluster's endpoints down. Calls still in flight on
// active runs fail over to their shutdown paths.
func (c *UDPCluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	var first error
	for _, ep := range c.eps {
		if err := ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// UDPRun is one program run on a live UDPCluster: a complete kernel
// stack on its own service-id lane. Allocate shared data, call Run once,
// then Peek the results; the lane and transports are reclaimed when Run
// returns, the endpoints stay up for the next run.
type UDPRun struct {
	c     *UDPCluster
	lane  uint16
	model cost.Model
	space *dsm.Space
	nodes []*rtnode.Node
	trs   []*rtnode.Transport
	dsms  []*dsm.DSM
	reds  []*reduce.Reducer
	rts   []*filament.Runtime

	netBase []Sample // endpoint counters at StartRun, for the run delta

	mu  sync.Mutex
	ran bool
}

// Lane returns the run's service-id lane (diagnostics).
func (r *UDPRun) Lane() int { return int(r.lane) }

// Nodes returns the cluster size.
func (r *UDPRun) Nodes() int { return r.c.cfg.Nodes }

// Runtime returns node i's runtime (for inspecting stats after Run).
func (r *UDPRun) Runtime(i int) *Runtime { return r.rts[i] }

// DSM returns node i's DSM instance (for inspecting stats after Run).
func (r *UDPRun) DSM(i int) *dsm.DSM { return r.dsms[i] }

// EnableTracing installs t as every node's trace sink for this run.
func (r *UDPRun) EnableTracing(t *Tracer) {
	for _, n := range r.nodes {
		n.Obs().SetTracer(t)
	}
}

// Outstanding sums this run's requests still awaiting replies. After Run
// returns it must be zero: a nonzero value means a protocol layer leaked
// an in-flight request past its barrier.
func (r *UDPRun) Outstanding() int {
	n := 0
	for _, rt := range r.rts {
		n += rt.Endpoint().Outstanding()
	}
	return n
}

// Metrics aggregates the run's node counters plus the endpoints'
// counters as the delta since StartRun. Node counters are exactly this
// run's; the endpoint delta also includes any overlapping run's wire
// traffic (endpoints are shared — see DESIGN.md §6).
func (r *UDPRun) Metrics() []Sample {
	var regs []*obs.Registry
	for _, n := range r.nodes {
		regs = append(regs, n.Obs().Reg)
	}
	return obs.Merge(obs.Aggregate(regs...), obs.Delta(r.c.netMetrics(), r.netBase))
}

// Alloc reserves shared memory owned initially by node 0.
func (r *UDPRun) Alloc(size int64) Addr {
	return r.space.Alloc(size, dsm.AllocOpts{})
}

// AllocOwned reserves shared memory owned initially by the given node.
func (r *UDPRun) AllocOwned(size int64, owner int) Addr {
	return r.space.Alloc(size, dsm.AllocOpts{Owner: kernel.NodeID(owner)})
}

// AllocMatrixOwned allocates a shared matrix initially owned by one node.
func (r *UDPRun) AllocMatrixOwned(rows, cols, owner int) Matrix {
	return dsm.AllocMatrix(r.space, rows, cols, dsm.AllocOpts{Owner: kernel.NodeID(owner)})
}

// AllocMatrixStriped allocates a matrix owned in one horizontal strip per
// node.
func (r *UDPRun) AllocMatrixStriped(rows, cols int) Matrix {
	return dsm.AllocMatrixStriped(r.space, rows, cols, r.c.cfg.Nodes)
}

// Run executes program on every node and returns the run report. It may
// be called once per UDPRun; on completion the run's transports detach
// from the shared endpoints (which stay up) and its lane is recycled.
// A non-nil report may accompany a non-nil error when the run completed
// but failed its quiescence invariant.
func (r *UDPRun) Run(program Program) (*UDPReport, error) {
	r.mu.Lock()
	if r.ran {
		r.mu.Unlock()
		return nil, fmt.Errorf("filaments: UDP run already ran")
	}
	r.ran = true
	r.mu.Unlock()
	start := time.Now()
	var wg sync.WaitGroup
	for i := range r.nodes {
		i := i
		wg.Add(1)
		r.nodes[i].Spawn("main", func(t kernel.Thread) {
			defer wg.Done()
			e := r.rts[i].NewExec(t)
			program(r.rts[i], e)
			e.Flush()
		})
	}
	// Every main has passed its final synchronization before the first
	// transport detaches, so any straggling retransmissions are still
	// answered (from the reply caches) while it matters.
	wg.Wait()
	rep := &UDPReport{Elapsed: time.Since(start), PerNode: make([]UDPNodeReport, r.c.cfg.Nodes)}
	for _, tr := range r.trs {
		tr.Detach()
	}
	// Detach drained the async request goroutines, so the per-transport
	// outstanding counts are settled; the invariant transconf enforces
	// after every scenario must hold after every job too.
	leaked := r.Outstanding()
	for _, n := range r.nodes {
		n.Close()
		n.Wait()
	}
	for i := range rep.PerNode {
		rep.PerNode[i] = UDPNodeReport{
			CPU:       r.nodes[i].Account(),
			DSM:       r.dsms[i].Stats(),
			Transport: r.trs[i].Endpoint().Stats(),
			Runtime:   r.rts[i].Stats(),
		}
	}
	rep.Metrics = r.Metrics()
	r.c.finishRun(r)
	if leaked != 0 {
		return rep, fmt.Errorf("filaments: %d requests still outstanding after run", leaked)
	}
	return rep, nil
}

// PeekF64 reads a shared float64 from whichever node owns it, for result
// verification after Run.
func (r *UDPRun) PeekF64(a Addr) float64 {
	for i, d := range r.dsms {
		var v float64
		var ok bool
		r.nodes[i].WithLock(func() { v, ok = d.Peek(a) })
		if ok {
			return v
		}
	}
	panic(fmt.Sprintf("filaments: no owner holds address %d", a))
}

// PeekMatrix copies a shared matrix out of the cluster after Run.
func (r *UDPRun) PeekMatrix(m Matrix) [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		row := make([]float64, m.Cols)
		for j := range row {
			row[j] = r.PeekF64(m.Addr(i, j))
		}
		out[i] = row
	}
	return out
}

// UDPNodeConfig describes one node of a multi-process UDP cluster. Every
// process must allocate identical shared data in identical order (the
// SPMD convention), so the address spaces agree.
type UDPNodeConfig struct {
	// ID is this node's identity, in [0, Nodes).
	ID int
	// Nodes is the cluster size.
	Nodes int
	// Peers holds every node's endpoint address, indexed by node ID; entry
	// ID is the address this node binds.
	Peers []string
	// Protocol is the page consistency protocol (default Migratory).
	Protocol Protocol
	// SharedBytes is the size of the shared address space (default 64 MB).
	SharedBytes int64
	// Stealing enables receiver-initiated fork/join load balancing.
	Stealing bool
	// MaxWorkers caps per-node fork/join server threads (default 16).
	MaxWorkers int
	// WakeFront is advisory under real time (see UDPRunConfig.WakeFront).
	WakeFront bool
	// Linger is how long the node keeps servicing requests after its own
	// main finishes, so slower peers' retransmissions still get answered
	// (default 500 ms).
	Linger time.Duration
	// KeepOpen leaves the endpoint open when Run completes; the caller
	// owns shutdown via Close. The service layer needs this ordering: a
	// worker's membership Leave rides the same socket as kernel traffic,
	// so it must be sent after the epoch but before the socket dies.
	KeepOpen bool
	// Model overrides the ledger cost model; nil uses cost.Default.
	Model *CostModel
	// Tuning collects the wall-clock wire-path knobs; identical values on
	// every process of the cluster.
	Tuning UDPTuning
}

// UDPNode is one process's node in a multi-process cluster.
type UDPNode struct {
	cfg   UDPNodeConfig
	model cost.Model
	space *dsm.Space
	node  *rtnode.Node
	tr    *rtnode.Transport
	d     *dsm.DSM
	red   *reduce.Reducer
	rt    *filament.Runtime
	ran   bool

	shutdown sync.Once
}

// NewUDPNode builds this process's node and binds its endpoint.
func NewUDPNode(cfg UDPNodeConfig) (*UDPNode, error) {
	if cfg.Nodes <= 0 || cfg.ID < 0 || cfg.ID >= cfg.Nodes {
		return nil, fmt.Errorf("filaments: bad node identity %d of %d", cfg.ID, cfg.Nodes)
	}
	if len(cfg.Peers) != cfg.Nodes {
		return nil, fmt.Errorf("filaments: %d peer addresses for %d nodes", len(cfg.Peers), cfg.Nodes)
	}
	if cfg.SharedBytes == 0 {
		cfg.SharedBytes = 64 << 20
	}
	if cfg.MaxWorkers == 0 {
		cfg.MaxWorkers = 16
	}
	if cfg.Linger == 0 {
		cfg.Linger = 500 * time.Millisecond
	}
	u := &UDPNode{cfg: cfg}
	if cfg.Model != nil {
		u.model = *cfg.Model
	} else {
		u.model = cost.Default()
	}
	addrs := make([]*net.UDPAddr, cfg.Nodes)
	for i, s := range cfg.Peers {
		a, err := net.ResolveUDPAddr("udp", s)
		if err != nil {
			return nil, fmt.Errorf("filaments: peer %d: %w", i, err)
		}
		addrs[i] = a
	}
	ep, err := udptrans.Listen(cfg.Peers[cfg.ID], rtOptions(cfg.Tuning))
	if err != nil {
		return nil, err
	}
	u.space = dsm.NewSpace(cfg.SharedBytes)
	u.node = rtnode.NewNode(kernel.NodeID(cfg.ID), &u.model)
	u.tr = rtnode.NewTransport(u.node, ep)
	u.tr.SetPeers(addrs)
	u.d = dsm.New(u.node, u.tr, u.space, cfg.Protocol)
	u.d.SetDiffs(!cfg.Tuning.NoDiffs)
	u.d.WakeFront = cfg.WakeFront
	u.red = reduce.New(u.node, u.tr, u.d, cfg.Nodes)
	u.rt = filament.New(u.node, u.tr, u.d, u.red, cfg.Nodes)
	u.rt.Stealing = cfg.Stealing
	u.rt.MaxWorkers = cfg.MaxWorkers
	return u, nil
}

// Runtime returns the node's runtime.
func (u *UDPNode) Runtime() *Runtime { return u.rt }

// Endpoint returns the node's UDP endpoint. The service layer
// (internal/cluster/daemon) sends its membership traffic — join,
// heartbeat, leave — over this same socket, so a worker needs exactly
// one bound address for both roles.
func (u *UDPNode) Endpoint() *udptrans.Endpoint { return u.tr.Endpoint() }

// EnableTracing installs t as the node's trace sink (wall-time stamps).
func (u *UDPNode) EnableTracing(t *Tracer) { u.node.Obs().SetTracer(t) }

// Metrics aggregates this node's counter registry with its endpoint's.
// Safe to call live from any goroutine (e.g. an HTTP metrics handler);
// counters are race-free.
func (u *UDPNode) Metrics() []Sample {
	return obs.Aggregate(u.node.Obs().Reg, u.tr.Endpoint().Metrics())
}

// Alloc reserves shared memory owned initially by node 0. Every process
// must perform identical allocations in identical order.
func (u *UDPNode) Alloc(size int64) Addr {
	return u.space.Alloc(size, dsm.AllocOpts{})
}

// AllocOwned reserves shared memory owned initially by the given node.
func (u *UDPNode) AllocOwned(size int64, owner int) Addr {
	return u.space.Alloc(size, dsm.AllocOpts{Owner: kernel.NodeID(owner)})
}

// AllocMatrixOwned allocates a shared matrix initially owned by one node.
func (u *UDPNode) AllocMatrixOwned(rows, cols, owner int) Matrix {
	return dsm.AllocMatrix(u.space, rows, cols, dsm.AllocOpts{Owner: kernel.NodeID(owner)})
}

// Close shuts the node down: the endpoint closes (failing any pending
// calls) and the node scheduler stops. Idempotent, safe to call
// concurrently with Run — it is the SIGTERM path, where a daemon must
// release its socket even mid-epoch.
func (u *UDPNode) Close() {
	u.shutdown.Do(func() {
		u.tr.Close() //nolint:errcheck // best-effort shutdown
		u.node.Close()
		u.node.Wait()
	})
}

// Run executes this node's part of the SPMD program, lingers so lagging
// peers' retransmissions are still answered, then closes the endpoint.
func (u *UDPNode) Run(program Program) (*UDPNodeReport, error) {
	if u.ran {
		return nil, fmt.Errorf("filaments: UDP node already ran")
	}
	u.ran = true
	done := make(chan struct{})
	u.node.Spawn("main", func(t kernel.Thread) {
		defer close(done)
		e := u.rt.NewExec(t)
		program(u.rt, e)
		e.Flush()
	})
	<-done
	time.Sleep(u.cfg.Linger)
	if !u.cfg.KeepOpen {
		u.Close()
	}
	return &UDPNodeReport{
		CPU:       u.node.Account(),
		DSM:       u.d.Stats(),
		Transport: u.tr.Endpoint().Stats(),
		Runtime:   u.rt.Stats(),
	}, nil
}
