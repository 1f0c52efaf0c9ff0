// Package reduce implements the paper's reductions: a primitive that
// accumulates a value from every node, disseminates the result to all
// nodes, and doubles as a barrier (§3). A "pure" barrier is a reduction
// that computes no value.
//
// The implementation is the paper's tournament barrier with broadcast
// dissemination [HFM88]: O(p) messages and O(log p) latency. Losers send
// their partial value up a binomial tournament; the champion broadcasts the
// release. Reliability comes from Packet's retransmission: a lost release
// is recovered because the loser keeps retransmitting its arrive request
// until some node that has seen the release replies with the result.
//
// Reductions are integrated with the page consistency protocol: before
// arriving, a node waits for its outstanding page operations and, under
// implicit-invalidate, discards all read-only copies — which is what lets
// that protocol omit invalidation messages entirely.
package reduce

import (
	"math"

	"filaments/internal/dsm"
	"filaments/internal/kernel"
	"filaments/internal/obs"
	"filaments/internal/rtnode"
)

// SvcArrive is the service ID for tournament arrive messages.
const SvcArrive kernel.ServiceID = 20

// The real-time binding serializes payloads with gob.
func init() {
	rtnode.RegisterWire(arriveMsg{}, releaseMsg{})
}

// Op combines two reduction values. It must be commutative and
// associative, and identical on every node for a given reduction.
type Op func(a, b float64) float64

// Predefined operators.
var (
	Sum = func(a, b float64) float64 { return a + b }
	Max = math.Max
	Min = math.Min
)

// Style selects the barrier algorithm.
type Style int

const (
	// Tournament is the paper's algorithm: binomial combining tree plus a
	// broadcast release.
	Tournament Style = iota
	// Central is the ablation baseline: every node reports to node 0,
	// which broadcasts the release. O(p) messages but all serialized at
	// the coordinator.
	Central
	// Dissemination is the butterfly allreduce the paper lists as future
	// work ("experiments with different types of barriers for large
	// numbers of processors"): log2(p) fully parallel rounds, in round k
	// node i sending its partial to (i+2^k) mod p. O(p·log p) messages
	// but the lowest latency at scale. Value reductions require a
	// power-of-two cluster (otherwise contributions would double-count);
	// the constructor falls back to Tournament then.
	Dissemination
)

type arriveMsg struct {
	Epoch int64
	Round int32 // dissemination round; 0 for tournament/central arrivals
	Value float64
	Has   bool
	// Notices is the sender's (subtree-unioned) write-notice set under
	// lazy release consistency: the sorted blocks written since the last
	// barrier. Always nil under the single-writer protocols.
	Notices []int32
}

type releaseMsg struct {
	Epoch   int64
	Result  float64
	Notices []int32 // cluster-wide write-notice union (see arriveMsg)
}

const msgSize = 20 // the paper's bound on request size (empty-notice case)

// noticeBytes is the charged wire cost of a write-notice set riding on a
// barrier message: zero when empty, so the single-writer protocols charge
// exactly the paper's msgSize.
func noticeBytes(notices []int32) int { return 4 * len(notices) }

// mergeNotices unions two sorted, duplicate-free notice sets. It copies
// rather than aliasing its inputs, so decoded messages are never retained.
func mergeNotices(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append([]int32(nil), b...)
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// epochState is one node's state for one barrier epoch. States are
// recycled through Reducer.free once their epoch completes, so a barrier
// allocates none in steady state; every slice keeps its capacity across
// reuse, and nothing outside the epoch retains a state (the loser's arrive
// handle is canceled before the epoch completes, so its callback never
// runs on a recycled state).
type epochState struct {
	epoch    int64
	vals     []float64       // child values plus own, folded at completion
	arrived  []kernel.NodeID // children merged so far (at most ⌈log2 p⌉ under Tournament)
	own      bool
	released bool
	result   float64
	waiter   kernel.Thread // local thread parked on this epoch
	handle   kernel.Handle // outstanding arrive request, if a loser
	onReply  func(any)     // the arrive request's callback, built once per state

	// notices is the union of this node's own write notices and those of
	// every merged child; rNotices is the cluster-wide union that arrived
	// with the release. Both stay nil under the single-writer protocols.
	notices  []int32
	rNotices []int32

	// rounds holds the value received in each dissemination round, indexed
	// by round, and the notices that rode with it (Dissemination only).
	rounds []roundIn
}

// roundIn is what one dissemination round delivered.
type roundIn struct {
	has     bool
	val     float64
	notices []int32
}

// hasArrived reports whether child c's arrival was already merged.
func (st *epochState) hasArrived(c kernel.NodeID) bool {
	for _, a := range st.arrived {
		if a == c {
			return true
		}
	}
	return false
}

// releasedEpoch is a completed epoch's outcome, kept for laggards.
type releasedEpoch struct {
	epoch   int64
	result  float64
	notices []int32
}

// Reducer is one node's reduction/barrier instance.
type Reducer struct {
	node  kernel.Node
	ep    kernel.Transport
	d     *dsm.DSM // optional; nil for programs without DSM
	id    int
	n     int
	Style Style

	epoch int64
	op    Op
	// live holds the epochs with state, searched linearly: in practice the
	// current epoch and at most the next (a child can run one epoch ahead
	// of a parent that has not yet seen the release). free recycles states
	// of completed epochs.
	live []*epochState
	free []*epochState
	// hist retains recently released results and write-notice unions,
	// indexed by epoch modulo resultHistory, so that a node lagging by
	// several epochs (repeated losses) still gets the right value when its
	// retransmitted arrive reaches us.
	hist [resultHistory]releasedEpoch

	obs      *obs.Obs
	barriers *obs.Counter
}

const resultHistory = 8

// New creates the reducer for one node of an n-node cluster. d may be nil
// when the program does not use the DSM.
func New(node kernel.Node, ep kernel.Transport, d *dsm.DSM, n int) *Reducer {
	o := obs.Of(node)
	r := &Reducer{
		node:     node,
		ep:       ep,
		d:        d,
		id:       int(node.ID()),
		n:        n,
		obs:      o,
		barriers: o.Counter("reduce.barriers"),
	}
	ep.Register(SvcArrive, kernel.Service{
		Name:       "reduce-arrive",
		Idempotent: true, // duplicates are filtered by the arrived set
		Category:   kernel.CatSync,
		Handler:    r.serveArrive,
	})
	ep.HandleRaw(r.handleRelease)
	return r
}

// Count returns how many reductions/barriers completed on this node. The
// counter is atomic, so the read is safe from any goroutine.
func (r *Reducer) Count() int64 { return r.barriers.Load() }

// state returns epoch e's state, taking a recycled one when e has none.
//
//dflint:hotpath
func (r *Reducer) state(e int64) *epochState {
	for _, st := range r.live {
		if st.epoch == e {
			return st
		}
	}
	var st *epochState
	if n := len(r.free); n > 0 {
		st = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		st = r.newEpochState()
	}
	st.epoch = e
	r.live = append(r.live, st)
	return st
}

// newEpochState makes a state when the free list is empty, which happens
// only while the number of concurrently live epochs reaches a new high
// (one or two); from then on state recycles.
func (r *Reducer) newEpochState() *epochState {
	//dflint:allow hotalloc made once per live-epoch high-water mark, then recycled
	st := &epochState{}
	//dflint:allow hotalloc the arrive callback is built once per recycled state, not per barrier
	st.onReply = func(reply any) { r.arriveReplied(st, reply) }
	return st
}

// retire drops a completed epoch's state and recycles it.
func (r *Reducer) retire(st *epochState) {
	for i, s := range r.live {
		if s == st {
			last := len(r.live) - 1
			r.live[i] = r.live[last]
			r.live[last] = nil
			r.live = r.live[:last]
			break
		}
	}
	st.vals = st.vals[:0]
	st.arrived = st.arrived[:0]
	st.rounds = st.rounds[:0]
	st.own, st.released, st.result = false, false, 0
	st.waiter, st.handle = nil, nil
	// The notice sets are not reused: the released union is retained in
	// hist, and the others are shared with it or with sent messages.
	st.notices, st.rNotices = nil, nil
	r.free = append(r.free, st)
}

// history returns a completed epoch's result and notice union, or zero
// values once the epoch has left the retained window.
func (r *Reducer) history(e int64) (float64, []int32) {
	if e < 0 {
		return 0, nil
	}
	h := r.hist[e%resultHistory]
	if h.epoch != e {
		return 0, nil
	}
	return h.result, h.notices
}

// Barrier blocks t until every node has arrived at the same barrier.
func (r *Reducer) Barrier(t kernel.Thread) {
	r.Reduce(t, 0, Sum)
}

// Reduce contributes x, blocks until all nodes have contributed, and
// returns the combined value (identical on every node).
func (r *Reducer) Reduce(t kernel.Thread, x float64, op Op) float64 {
	model := r.node.Model()
	t0 := r.node.Now()
	// Synchronization-point duties (paper §3): flush this interval's diffs
	// toward their homes (lazy release consistency only), drain outstanding
	// page operations — which covers the flush acks — then apply the
	// protocol's synchronization rule to read-only copies.
	var myNotices []int32
	if r.d != nil {
		myNotices = r.d.AtRelease()
		r.d.Quiesce(t)
		r.d.AtBarrier()
	}
	r.node.Charge(kernel.CatSync, model.BarrierProcess)

	e := r.epoch
	r.op = op
	st := r.state(e)
	st.own = true
	st.vals = append(st.vals, x)
	st.notices = mergeNotices(st.notices, myNotices)
	if m := r.monitor(); m != nil {
		m.OnBarrierArrive(r.node.ID(), e, r.node.Now())
	}

	switch {
	case r.n == 1:
		st.released = true
		st.result = x
		st.rNotices = st.notices
		if m := r.monitor(); m != nil {
			m.OnEpochQuiesced(r.node.ID(), e, r.node.Now())
		}
	case r.Style == Dissemination && r.n&(r.n-1) == 0:
		r.disseminate(t, e, st, x)
	case r.id == 0:
		r.championWait(t, e, st)
	default:
		r.loserPath(t, e, st)
	}

	result := st.result
	acquired := st.rNotices
	r.retire(st)
	r.hist[e%resultHistory] = releasedEpoch{epoch: e, result: result, notices: acquired}
	r.epoch++
	r.barriers.Inc()
	// Acquire-side duty: invalidate the copies the cluster-wide notice set
	// marks stale (a no-op under the single-writer protocols).
	if r.d != nil {
		r.d.AtAcquire(acquired)
	}
	if m := r.monitor(); m != nil {
		m.OnBarrierRelease(r.node.ID(), e, r.node.Now())
	}
	if r.obs.Enabled() {
		r.obs.TraceSpan(int64(t0), int64(r.node.Now().Sub(t0)), "sync", "barrier",
			obs.Arg{Key: "epoch", Val: e})
	}
	return result
}

// monitor returns the space's memory-model monitor, if the program runs a
// DSM and one is attached.
func (r *Reducer) monitor() dsm.Monitor {
	if r.d == nil {
		return nil
	}
	return r.d.Space().Monitor()
}

// childCount returns how many tournament children this node has: node
// id receives from id+1, id+2, id+4, ... until the next set bit of id or
// the cluster size cuts it off. Under the Central style node 0's children
// are everyone.
func (r *Reducer) childCount() int {
	if r.Style == Central {
		if r.id == 0 {
			return r.n - 1
		}
		return 0
	}
	c := 0
	for bit := 1; ; bit <<= 1 {
		if r.id != 0 && r.id&bit != 0 {
			break // we lose at this round
		}
		if r.id+bit >= r.n {
			break
		}
		c++
	}
	return c
}

// parent returns the node this one reports to when it loses.
func (r *Reducer) parent() kernel.NodeID {
	if r.Style == Central {
		return 0
	}
	// Clear the lowest set bit: the winner of our losing round.
	return kernel.NodeID(r.id & (r.id - 1))
}

// championWait runs node 0's side: wait for all children, fold, broadcast.
func (r *Reducer) championWait(t kernel.Thread, e int64, st *epochState) {
	want := r.childCount()
	t0 := r.node.Now()
	for len(st.arrived) < want {
		st.waiter = t
		t.Block()
		st.waiter = nil
	}
	r.node.AddDelay(kernel.CatSyncDelay, r.node.Now().Sub(t0))
	st.result = r.fold(st)
	st.released = true
	st.rNotices = st.notices // the champion's union is the cluster's
	// The fold is a globally quiescent instant: every node has arrived
	// (transitively, through its subtree's partials), each drained its
	// outstanding page operations before arriving, and none resumes until
	// the release below — so page frames are stable and snapshotable. The
	// dissemination butterfly has no such instant, which is why the
	// consistency oracle only supports the tournament and central styles.
	if m := r.monitor(); m != nil {
		m.OnEpochQuiesced(r.node.ID(), e, r.node.Now())
	}
	// Broadcast dissemination: one frame releases everyone.
	rel := releaseMsg{Epoch: e, Result: st.result, Notices: st.rNotices}
	r.ep.Send(kernel.Broadcast, rel, msgSize+noticeBytes(rel.Notices), kernel.CatSync)
}

// loserPath runs a non-champion: collect children (if any), then send the
// partial up and wait for the release.
func (r *Reducer) loserPath(t kernel.Thread, e int64, st *epochState) {
	want := r.childCount()
	t0 := r.node.Now()
	for len(st.arrived) < want {
		st.waiter = t
		t.Block()
		st.waiter = nil
	}
	partial := r.fold(st)
	up := arriveMsg{Epoch: e, Value: partial, Has: true, Notices: st.notices}
	st.handle = r.ep.RequestAsync(r.parent(), SvcArrive, up,
		msgSize+noticeBytes(up.Notices), kernel.CatSync, st.onReply)
	for !st.released {
		st.waiter = t
		t.Block()
		st.waiter = nil
	}
	st.handle.Cancel()
	r.node.AddDelay(kernel.CatSyncDelay, r.node.Now().Sub(t0))
}

// arriveReplied is the loser's arrive callback: a direct reply means the
// parent (or champion) had already released.
func (r *Reducer) arriveReplied(st *epochState, reply any) {
	if m, ok := reply.(releaseMsg); ok && !st.released {
		st.released = true
		st.result = m.Result
		st.rNotices = mergeNotices(nil, m.Notices)
	}
	if st.waiter != nil {
		w := st.waiter
		st.waiter = nil
		r.node.Ready(w, true)
	}
}

// disseminate runs the butterfly: in round k, exchange partials with the
// nodes ±2^k away; after log2(p) rounds every node holds the full result.
func (r *Reducer) disseminate(t kernel.Thread, e int64, st *epochState, x float64) {
	partial := x
	partialN := st.notices
	t0 := r.node.Now()
	for k, dist := int32(0), 1; dist < r.n; k, dist = k+1, dist*2 {
		dst := kernel.NodeID((r.id + dist) % r.n)
		out := arriveMsg{Epoch: e, Round: k, Value: partial, Has: true, Notices: partialN}
		r.ep.RequestAsync(dst, SvcArrive, out,
			msgSize+noticeBytes(out.Notices), kernel.CatSync, func(any) {})
		for {
			if int(k) < len(st.rounds) && st.rounds[k].has {
				partial = r.op(partial, st.rounds[k].val)
				// Set union is idempotent, so the butterfly's double
				// counting is harmless for notices.
				partialN = mergeNotices(partialN, st.rounds[k].notices)
				break
			}
			st.waiter = t
			t.Block()
		}
	}
	st.result = partial
	st.released = true
	st.rNotices = partialN
	r.node.AddDelay(kernel.CatSyncDelay, r.node.Now().Sub(t0))
}

func (r *Reducer) fold(st *epochState) float64 {
	acc := st.vals[0]
	for _, v := range st.vals[1:] {
		acc = r.op(acc, v)
	}
	return acc
}

// serveArrive handles a child's arrive request. If this epoch is already
// released we answer with the result (covers a lost broadcast); otherwise
// we merge the value and drop — the broadcast will release the child, and
// its retransmission covers loss.
func (r *Reducer) serveArrive(from kernel.NodeID, req any) (any, int, kernel.Verdict) {
	m := req.(arriveMsg)
	if m.Epoch < r.epoch {
		// Old epoch: it completed globally (we have moved on), so the
		// release exists; resend it from the retained history.
		result, notices := r.history(m.Epoch)
		rel := releaseMsg{Epoch: m.Epoch, Result: result, Notices: notices}
		return rel, msgSize + noticeBytes(rel.Notices), kernel.Reply
	}
	st := r.state(m.Epoch)
	if r.Style == Dissemination && r.n&(r.n-1) == 0 && r.n > 1 {
		// Record the round's value (duplicates ignored) and ack. A round
		// number no butterfly of 2^31 nodes could send is dropped unread.
		if m.Round < 0 || m.Round > 30 {
			return nil, 8, kernel.Reply
		}
		for len(st.rounds) <= int(m.Round) {
			st.rounds = append(st.rounds, roundIn{})
		}
		if in := &st.rounds[m.Round]; !in.has {
			in.has, in.val = true, m.Value
			if len(m.Notices) > 0 {
				in.notices = mergeNotices(nil, m.Notices)
			}
			r.node.Charge(kernel.CatSync, r.node.Model().BarrierMerge)
			if st.waiter != nil {
				w := st.waiter
				st.waiter = nil
				r.node.Ready(w, true)
			}
		}
		return nil, 8, kernel.Reply
	}
	if st.released {
		rel := releaseMsg{Epoch: m.Epoch, Result: st.result, Notices: st.rNotices}
		return rel, msgSize + noticeBytes(rel.Notices), kernel.Reply
	}
	if !st.hasArrived(from) {
		st.arrived = append(st.arrived, from)
		r.node.Charge(kernel.CatSync, r.node.Model().BarrierMerge)
		st.vals = append(st.vals, m.Value)
		st.notices = mergeNotices(st.notices, m.Notices)
		if st.waiter != nil && st.own {
			w := st.waiter
			st.waiter = nil
			r.node.Ready(w, true)
		}
	}
	return nil, 0, kernel.Drop
}

// handleRelease consumes broadcast release datagrams.
func (r *Reducer) handleRelease(from kernel.NodeID, payload any) bool {
	m, ok := payload.(releaseMsg)
	if !ok {
		return false
	}
	r.node.Charge(kernel.CatSync, r.node.Model().RecvCost(msgSize+noticeBytes(m.Notices)))
	if m.Epoch < r.epoch {
		return true // stale
	}
	st := r.state(m.Epoch)
	if st.released {
		return true
	}
	st.released = true
	st.result = m.Result
	st.rNotices = mergeNotices(nil, m.Notices)
	if st.handle != nil {
		st.handle.Cancel()
	}
	if st.waiter != nil {
		w := st.waiter
		st.waiter = nil
		r.node.Ready(w, true)
	}
	return true
}
