package filament

import (
	"fmt"
	"math"

	"filaments/internal/dsm"
	"filaments/internal/kernel"
	"filaments/internal/obs"
)

// Fork/join filaments (paper §2.3). A recursive computation starts on node
// 0; the initial distribution phase sends alternate forks down a binomial
// tree (Figure 2), doubling the number of busy nodes at each step. Once a
// node has fed all its children it keeps its forks, and pruning turns them
// into plain procedure calls when enough local work exists. Idle nodes
// optionally run receiver-initiated load balancing, stealing pending
// filaments round-robin.

// FJFunc is the body of a fork/join filament. It returns the filament's
// result value (applications with larger results place them in shared
// memory and return a token).
type FJFunc func(e *Exec, a Args) float64

// Packet services used by fork/join.
const (
	// SvcFork ships a filament to another node during initial
	// distribution.
	SvcFork kernel.ServiceID = 30 + iota
	// SvcResult returns a completed filament's value to its join's node.
	SvcResult
	// SvcSteal asks a victim for a pending filament.
	SvcSteal
)

const fjMsgSize = 20

// pruneThreshold is how many pending local filaments count as "enough work
// to keep the node busy", switching forks to procedure calls.
const pruneThreshold = 2

// stealBackoff is how long an idle node waits after a full unsuccessful
// round of steal requests before probing again.
const stealBackoff = 5 * kernel.Millisecond

type task struct {
	Fn     int32
	Args   Args
	Origin kernel.NodeID // node holding the join
	JoinID int64
}

type forkMsg struct{ T task }

type resultMsg struct {
	JoinID int64
	Value  float64
	// Fn and Sum echo the task's identity so the memory-model monitor can
	// pair this delivery with its OnResultShip event. The wire charge stays
	// fjMsgSize, so simulated timings are unchanged.
	Fn  int32
	Sum uint64
}

// A steal request carries no payload (the request itself is the probe);
// it travels as a nil payload so both bindings encode it as empty.

type stealReply struct {
	Granted bool
	T       task
}

type doneMsg struct{ Result float64 }

// Join accumulates the results of forked children.
type Join struct {
	rt     *Runtime
	id     int64
	need   int
	have   int
	sum    float64
	waiter kernel.Thread
}

type worker struct {
	t        kernel.Thread
	parked   bool
	timedIdx int64 // nonzero while a timed wake is armed
}

// RangeFunc describes the shared-memory ranges one fork/join filament
// will touch, as a function of its arguments. Registered describers let
// the distributor auto-emit NoteRead/NoteWrite annotations for every
// filament it runs, at the filament's declared index range.
type RangeFunc func(a Args) (reads, writes []dsm.Range)

type fjState struct {
	funcs  []FJFunc
	ranges []RangeFunc

	children  []kernel.NodeID // binomial-tree children, nearest first
	nextChild int
	sendNext  bool // alternate send/keep during distribution

	pending []task // local deque: back = newest (LIFO for locals, FIFO for steals)
	joins   map[int64]*Join
	nextID  int64

	// joinWaiters are joins whose threads are blocked in Wait. Their Wait
	// loops drain pending work, so when every worker is busy or blocked
	// they are the remaining way to get an arriving filament executed.
	joinWaiters []*Join

	workers     []*worker
	idle        []*worker
	active      int
	stealVictim int
	stealing    bool // a steal probe is in flight (only one at a time)

	done       bool
	result     float64
	mainWaiter kernel.Thread
	exitWaiter kernel.Thread
	timedSeq   int64
}

func (rt *Runtime) initForkJoin() {
	fj := &rt.fj
	fj.joins = make(map[int64]*Join)
	fj.sendNext = true
	id := rt.ID()
	// Binomial-tree children (Figure 2): node i feeds i+2^j for every
	// 2^j > i, so in each step of the initial distribution the number of
	// nodes with work doubles and every node is fed exactly once.
	start := 1
	for start <= id {
		start <<= 1
	}
	for bit := start; id+bit < rt.n; bit <<= 1 {
		fj.children = append(fj.children, kernel.NodeID(id+bit))
	}
	fj.stealVictim = (id + 1) % rt.n

	rt.ep.Register(SvcFork, kernel.Service{
		Name: "fj-fork", Idempotent: false, Category: kernel.CatFilament,
		Handler: rt.serveFork,
	})
	rt.ep.Register(SvcResult, kernel.Service{
		Name: "fj-result", Idempotent: false, Category: kernel.CatFilament,
		Handler: rt.serveResult,
	})
	rt.ep.Register(SvcSteal, kernel.Service{
		Name: "fj-steal", Idempotent: false, Category: kernel.CatFilament,
		Handler: rt.serveSteal,
	})
	rt.ep.HandleRaw(rt.handleDone)
}

// RegisterFJ registers fn under an application-chosen small ID, identically
// on every node, so filaments can be shipped by ID.
func (rt *Runtime) RegisterFJ(id int, fn FJFunc) {
	fj := &rt.fj
	for len(fj.funcs) <= id {
		fj.funcs = append(fj.funcs, nil)
	}
	if fj.funcs[id] != nil {
		panic(fmt.Sprintf("filament: fork/join func %d registered twice", id))
	}
	fj.funcs[id] = fn
}

// RegisterFJRanges registers the range describer for the fork/join
// function with the given ID (identically on every node, like
// RegisterFJ). When a memory-model monitor is attached, every execution
// of the function is bracketed with the describer's declared ranges.
func (rt *Runtime) RegisterFJRanges(id int, fn RangeFunc) {
	fj := &rt.fj
	for len(fj.ranges) <= id {
		fj.ranges = append(fj.ranges, nil)
	}
	fj.ranges[id] = fn
}

// taskKey is the monitor identity of tk.
func taskKey(tk task) dsm.TaskKey {
	return dsm.TaskKey{Origin: tk.Origin, Join: tk.JoinID, Fn: tk.Fn, Sum: argsSum(tk.Args)}
}

// argsSum is an FNV-1a hash of the task arguments, used only to pair
// monitor events for tasks that share an origin, join, and function.
func argsSum(a Args) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range a {
		for i := 0; i < 8; i++ {
			h ^= uint64(v>>(8*i)) & 0xff
			h *= prime64
		}
	}
	return h
}

// callFJ invokes a fork/join body, bracketing it for the memory-model
// monitor with the ranges its registered describer declares. Without a
// monitor it is a plain call.
func (rt *Runtime) callFJ(e *Exec, fnID int32, args Args) float64 {
	m := rt.monitor()
	if m == nil {
		return rt.fj.funcs[fnID](e, args)
	}
	var reads, writes []dsm.Range
	if int(fnID) < len(rt.fj.ranges) && rt.fj.ranges[fnID] != nil {
		reads, writes = rt.fj.ranges[fnID](args)
	}
	now := rt.node.Now()
	m.OnFilamentBegin(rt.node.ID(), fmt.Sprintf("fj/%d%v", fnID, args), reads, writes, now)
	for _, r := range reads {
		m.OnNote(rt.node.ID(), r, false, now)
	}
	for _, r := range writes {
		m.OnNote(rt.node.ID(), r, true, now)
	}
	v := rt.fj.funcs[fnID](e, args)
	m.OnFilamentEnd(rt.node.ID(), rt.node.Now())
	return v
}

// NewJoin creates an empty join.
func (rt *Runtime) NewJoin() *Join {
	rt.fj.nextID++
	j := &Join{rt: rt, id: rt.fj.nextID}
	rt.fj.joins[j.id] = j
	return j
}

// Fork creates a child filament contributing to j. During the initial
// distribution phase alternate forks are shipped to the node's binomial
// children ("it sends one filament to its child and keeps the other");
// afterwards forks are pruned to procedure calls when enough local work
// exists, and otherwise become local (stealable) filaments.
func (rt *Runtime) Fork(e *Exec, j *Join, fnID int, args Args) {
	fj := &rt.fj
	j.need++
	tk := task{Fn: int32(fnID), Args: args, Origin: rt.node.ID(), JoinID: j.id}

	if fj.nextChild < len(fj.children) && fj.sendNext && rt.canShip() {
		fj.sendNext = false
		dst := fj.children[fj.nextChild]
		fj.nextChild++
		rt.ctr.forksSent.Inc()
		e.Flush()
		if m := rt.monitor(); m != nil {
			m.OnTaskShip(rt.node.ID(), dst, taskKey(tk), rt.node.Now())
		}
		rt.ep.RequestAsync(dst, SvcFork, forkMsg{T: tk}, fjMsgSize, kernel.CatFilament, func(any) {})
		return
	}
	if fj.nextChild < len(fj.children) {
		fj.sendNext = true // this one is kept; the next is sent
	} else if len(fj.pending) >= pruneThreshold {
		// Pruning: the fork becomes a procedure call, the join a return.
		rt.ctr.forksPruned.Inc()
		v := rt.callFJ(e, int32(fnID), args)
		e.Flush()
		j.deliver(v)
		return
	}
	rt.ctr.forksKept.Inc()
	rt.ctr.created.Inc()
	e.overhead(rt.node.Model().FilamentCreate)
	rt.enqueue(tk)
}

// Wait blocks until every forked child has delivered, returning the sum of
// their results. While waiting, the server thread executes pending local
// filaments — the recursion's sibling work — rather than idling.
func (j *Join) Wait(e *Exec) float64 {
	rt := j.rt
	for j.have < j.need {
		if tk, ok := rt.dequeueBack(); ok {
			rt.execTask(e, tk)
			continue
		}
		e.Flush()
		// Flush is a dispatch point: deliveries can land while it runs.
		// Re-check before parking, or a result that arrived mid-Flush
		// (before the waiter was registered) would never wake us.
		if j.have >= j.need {
			continue
		}
		j.waiter = e.t
		rt.fj.joinWaiters = append(rt.fj.joinWaiters, j)
		e.t.Block()
		for i, w := range rt.fj.joinWaiters {
			if w == j {
				rt.fj.joinWaiters = append(rt.fj.joinWaiters[:i], rt.fj.joinWaiters[i+1:]...)
				break
			}
		}
	}
	delete(rt.fj.joins, j.id)
	return j.sum
}

func (j *Join) deliver(v float64) {
	j.have++
	j.sum += v
	if j.have >= j.need && j.waiter != nil {
		w := j.waiter
		j.waiter = nil
		j.rt.node.Ready(w, true)
	}
}

// enqueue adds a local pending filament and makes sure a worker will run
// it.
func (rt *Runtime) enqueue(tk task) {
	rt.fj.pending = append(rt.fj.pending, tk)
	rt.ensureWorker()
}

func (rt *Runtime) dequeueBack() (task, bool) {
	fj := &rt.fj
	if len(fj.pending) == 0 {
		return task{}, false
	}
	tk := fj.pending[len(fj.pending)-1]
	fj.pending = fj.pending[:len(fj.pending)-1]
	return tk, true
}

// canShip reports whether fork/join tasks may move between nodes. Under
// lazy release consistency a task shipment is a synchronization edge the
// protocol does not flush on (only barriers are release points), so a
// shipped filament could read home frames that are missing its parent's
// unflushed writes. Programs that allocate shared memory therefore keep
// their filaments local under LRC — pure fork/join programs (no DSM
// blocks, e.g. quadrature) still distribute.
func (rt *Runtime) canShip() bool {
	return rt.d == nil || rt.d.Protocol() != dsm.LazyRelease || rt.d.Space().Blocks() == 0
}

func (rt *Runtime) dequeueFront() (task, bool) {
	fj := &rt.fj
	if len(fj.pending) == 0 {
		return task{}, false
	}
	tk := fj.pending[0]
	fj.pending = fj.pending[1:]
	return tk, true
}

// execTask runs one filament and routes its result to the join.
func (rt *Runtime) execTask(e *Exec, tk task) {
	rt.ctr.tasksExecuted.Inc()
	rt.ctr.run.Inc()
	e.overhead(rt.node.Model().FilamentSwitch)
	v := rt.callFJ(e, tk.Fn, tk.Args)
	e.Flush()
	if tk.Origin == rt.node.ID() {
		rt.joinDeliver(tk.JoinID, v)
		return
	}
	k := taskKey(tk)
	if m := rt.monitor(); m != nil {
		m.OnResultShip(rt.node.ID(), tk.Origin, k, rt.node.Now())
	}
	rt.ep.RequestAsync(tk.Origin, SvcResult, resultMsg{JoinID: tk.JoinID, Value: v, Fn: k.Fn, Sum: k.Sum},
		fjMsgSize, kernel.CatFilament, func(any) {})
}

func (rt *Runtime) joinDeliver(id int64, v float64) {
	if j, ok := rt.fj.joins[id]; ok {
		j.deliver(v)
	}
}

// ensureWorker wakes an idle worker or spawns a new one so pending work
// makes progress ("DF creates multiple server threads per node").
func (rt *Runtime) ensureWorker() {
	fj := &rt.fj
	if len(fj.pending) == 0 {
		return
	}
	if len(fj.idle) > 0 {
		w := fj.idle[len(fj.idle)-1]
		fj.idle = fj.idle[:len(fj.idle)-1]
		w.parked = false
		rt.node.Ready(w.t, false)
		return
	}
	if fj.active >= rt.MaxWorkers {
		// Every worker is running or blocked inside a join. Wake a join
		// waiter: its Wait loop picks up the pending filament. Without
		// this, a fork arriving while all workers sit in joins would
		// never run, and the join it feeds would never complete. Clearing
		// waiter keeps the wake single-shot (deliver uses the same
		// discipline); entries already woken have a nil waiter.
		for i := len(fj.joinWaiters) - 1; i >= 0; i-- {
			j := fj.joinWaiters[i]
			if j.waiter != nil {
				w := j.waiter
				j.waiter = nil
				rt.node.Ready(w, false)
				break
			}
		}
		return
	}
	fj.active++
	w := &worker{}
	fj.workers = append(fj.workers, w)
	w.t = rt.node.Spawn(fmt.Sprintf("fjworker%d", len(fj.workers)), func(kernel.Thread) {
		rt.workerLoop(w)
	})
}

func (rt *Runtime) workerLoop(w *worker) {
	fj := &rt.fj
	e := rt.NewExec(w.t)
	for {
		if tk, ok := rt.dequeueBack(); ok {
			rt.execTask(e, tk)
			continue
		}
		if fj.done {
			break
		}
		if rt.Stealing && rt.n > 1 && !fj.stealing && rt.canShip() {
			fj.stealing = true
			got := rt.trySteal(e)
			fj.stealing = false
			if got {
				continue
			}
			if fj.done {
				break
			}
			rt.parkWorker(w, stealBackoff)
			continue
		}
		rt.parkWorker(w, 0)
	}
	fj.active--
	if fj.active == 0 && fj.exitWaiter != nil {
		wt := fj.exitWaiter
		fj.exitWaiter = nil
		rt.node.Ready(wt, true)
	}
}

// parkWorker idles the worker until work arrives, done is signalled, or
// (if d > 0) the timeout elapses.
func (rt *Runtime) parkWorker(w *worker, d kernel.Duration) {
	fj := &rt.fj
	fj.idle = append(fj.idle, w)
	w.parked = true
	if d > 0 {
		fj.timedSeq++
		seq := fj.timedSeq
		w.timedIdx = seq
		rt.node.Schedule(d, func() {
			if w.parked && w.timedIdx == seq {
				// Still idle: remove from the idle list and wake.
				for i, x := range fj.idle {
					if x == w {
						fj.idle = append(fj.idle[:i], fj.idle[i+1:]...)
						break
					}
				}
				w.parked = false
				rt.node.Ready(w.t, false)
			}
		})
	}
	w.t.Block()
	w.timedIdx = 0
}

// trySteal probes victims round-robin once around the cluster. It returns
// true if a filament was obtained (and enqueued).
func (rt *Runtime) trySteal(e *Exec) bool {
	fj := &rt.fj
	for i := 0; i < rt.n-1; i++ {
		if fj.done || len(fj.pending) > 0 {
			return len(fj.pending) > 0
		}
		victim := fj.stealVictim
		fj.stealVictim = (fj.stealVictim + 1) % rt.n
		if victim == rt.ID() {
			victim = fj.stealVictim
			fj.stealVictim = (fj.stealVictim + 1) % rt.n
			if victim == rt.ID() {
				return false
			}
		}
		rt.ctr.stealsAttempted.Inc()
		reply := rt.ep.Call(e.t, kernel.NodeID(victim), SvcSteal, nil, fjMsgSize, kernel.CatFilament)
		m := reply.(stealReply)
		var granted int64
		if m.Granted {
			granted = 1
		}
		rt.obs.Trace(int64(rt.node.Now()), "fil", "steal",
			obs.Arg{Key: "victim", Val: int64(victim)}, obs.Arg{Key: "granted", Val: granted})
		if m.Granted {
			rt.ctr.stealsGranted.Inc()
			if mon := rt.monitor(); mon != nil {
				mon.OnTaskStart(rt.node.ID(), taskKey(m.T), rt.node.Now())
			}
			rt.enqueue(m.T)
			return true
		}
		rt.ctr.stealsDenied.Inc()
	}
	return false
}

// serveFork receives a distributed filament.
func (rt *Runtime) serveFork(from kernel.NodeID, req any) (any, int, kernel.Verdict) {
	m := req.(forkMsg)
	if rt.fj.done {
		return nil, 8, kernel.Reply
	}
	if mon := rt.monitor(); mon != nil {
		mon.OnTaskStart(rt.node.ID(), taskKey(m.T), rt.node.Now())
	}
	rt.enqueue(m.T)
	return nil, 8, kernel.Reply
}

// serveResult receives a child's result.
func (rt *Runtime) serveResult(from kernel.NodeID, req any) (any, int, kernel.Verdict) {
	m := req.(resultMsg)
	if mon := rt.monitor(); mon != nil {
		k := dsm.TaskKey{Origin: rt.node.ID(), Join: m.JoinID, Fn: m.Fn, Sum: m.Sum}
		mon.OnResultDeliver(rt.node.ID(), k, rt.node.Now())
	}
	rt.joinDeliver(m.JoinID, m.Value)
	return nil, 8, kernel.Reply
}

// serveSteal hands a pending filament to an idle node, or denies.
func (rt *Runtime) serveSteal(from kernel.NodeID, req any) (any, int, kernel.Verdict) {
	if rt.fj.done {
		return stealReply{}, fjMsgSize, kernel.Reply
	}
	if !rt.canShip() {
		return stealReply{}, fjMsgSize, kernel.Reply
	}
	// Steal from the front: the oldest filament is highest in the
	// recursion tree and so the biggest piece of work.
	if tk, ok := rt.dequeueFront(); ok {
		if mon := rt.monitor(); mon != nil {
			mon.OnTaskShip(rt.node.ID(), from, taskKey(tk), rt.node.Now())
		}
		return stealReply{Granted: true, T: tk}, fjMsgSize, kernel.Reply
	}
	return stealReply{}, fjMsgSize, kernel.Reply
}

func (rt *Runtime) handleDone(from kernel.NodeID, payload any) bool {
	m, ok := payload.(doneMsg)
	if !ok {
		return false
	}
	rt.node.Charge(kernel.CatFilament, rt.node.Model().RecvCost(fjMsgSize))
	rt.finish(m.Result)
	return true
}

// finish marks the computation complete and wakes everyone local.
func (rt *Runtime) finish(result float64) {
	fj := &rt.fj
	if fj.done {
		return
	}
	fj.done = true
	fj.result = result
	for _, w := range fj.idle {
		w.parked = false
		rt.node.Ready(w.t, false)
	}
	fj.idle = nil
	if fj.mainWaiter != nil {
		mw := fj.mainWaiter
		fj.mainWaiter = nil
		rt.node.Ready(mw, true)
	}
}

// RunForkJoin executes the registered root filament on node 0 and returns
// its result on every node; it must be called by every node's main thread.
// Workers drain, a done broadcast releases the cluster, and a final
// barrier makes completion global.
func (rt *Runtime) RunForkJoin(e *Exec, fnID int, args Args) float64 {
	fj := &rt.fj
	if rt.ID() == 0 {
		// The root filament runs here; its forks fan out down the tree.
		v := rt.callFJ(e, int32(fnID), args)
		e.Flush()
		rt.finish(v)
		if rt.n > 1 {
			rt.ep.Send(kernel.Broadcast, doneMsg{Result: v}, fjMsgSize, kernel.CatFilament)
		}
	} else {
		for !fj.done {
			fj.mainWaiter = e.t
			e.t.Block()
		}
	}
	for fj.active > 0 {
		fj.exitWaiter = e.t
		e.t.Block()
	}
	rt.red.Barrier(e.t)
	return fj.result
}

// FJResult returns the finished computation's result (NaN before
// completion).
func (rt *Runtime) FJResult() float64 {
	if !rt.fj.done {
		return math.NaN()
	}
	return rt.fj.result
}
