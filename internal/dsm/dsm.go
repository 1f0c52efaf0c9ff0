package dsm

import (
	"encoding/binary"
	"fmt"
	"math"

	"filaments/internal/kernel"
	"filaments/internal/obs"
)

// Service IDs used by the DSM on each node's transport endpoint.
const (
	// SvcPage requests a block (read or write/ownership, per the request's
	// Write flag). Non-idempotent: ownership transfers must not be
	// re-executed for a duplicate request, so replies are replayed from
	// the transport's reply cache.
	SvcPage kernel.ServiceID = 10 + iota
	// SvcInval invalidates a read-only copy (write-invalidate protocol).
	SvcInval
	// SvcFlush delivers a writer's interval diffs to a block's home node
	// at barrier release (lazy release consistency). Non-idempotent: the
	// home merges each flush exactly once; duplicates are answered from
	// the transport's reply cache.
	SvcFlush
)

type access uint8

const (
	accNone access = iota
	accRO
	accRW
)

// wire messages.
type pageReq struct {
	Block int32
	Write bool
	// HaveVer advertises the version of the stale copy the requester still
	// retains as a diff base, or -1 when it has none. The server may then
	// answer with a diff against that version instead of the full frame.
	HaveVer int64
}

type pageData struct {
	Block int32
	// Data aliases the transport's receive buffer after decode; the
	// install path must copy synchronously.
	//dflint:frame
	Data       []byte
	GrantOwner bool
	Copyset    []kernel.NodeID // WI ownership transfer: copies to invalidate
	// Ver is the version of the block content this message carries (or
	// produces, when Diff is set).
	Ver int64
	// Diff marks Data as a run-length diff against the base the requester
	// advertised in pageReq.HaveVer, rather than full content. A nil Data
	// with Diff set means "your base is already this version".
	Diff bool
}

type redirect struct {
	Block int32
	Owner kernel.NodeID
}

type invalReq struct{ Block int32 }

const reqSize = 16 // bytes on the wire for a small DSM request

// Stats counts DSM events on one node.
type Stats struct {
	ReadFaults   int64
	WriteFaults  int64
	Requests     int64 // page requests sent (including redirect retries)
	Served       int64 // page requests served with data
	Redirected   int64 // requests answered with a redirect
	InvalsSent   int64
	InvalsRecved int64
	MirageDrops  int64           // requests dropped by the time window
	BusyDrops    int64           // requests dropped mid-transition
	FaultWait    kernel.Duration // total time threads spent suspended in faults
	BytesIn      int64           // page data received
	BytesOut     int64           // page data sent
	DiffsSent    int64           // page requests answered with a diff
	DiffBytes    int64           // bytes shipped as diffs (subset of BytesOut)
	FullPages    int64           // touched frames shipped whole
	LRCMerges    int64           // diffs merged into home frames (LRC)
	WriteNotices int64           // write-notice entries generated at releases (LRC)
	TwinBytes    int64           // bytes copied into multi-writer twins (LRC)
}

type waiter struct {
	t     kernel.Thread
	write bool
}

type blockState struct {
	access access
	owner  bool
	// touched is false while the block has never been written anywhere: a
	// "virgin" block's content is all zeros, so serving it transfers
	// ownership without shipping a frame of zeros across the wire. The
	// original owner keeps the block read-only until its first local
	// write so the write is observed.
	touched   bool
	probOwner kernel.NodeID // best guess at the owner (starts at home)
	copyset   []kernel.NodeID
	// frame is the block's local content; revoked, re-homed, and
	// recycled at protocol events, so aliases must not outlive the
	// current epoch (the framescope analyzer enforces this).
	//dflint:frame
	frame    []byte
	waiting  []waiter
	fetching bool
	invals   int // outstanding invalidation acks before RW install
	acquired kernel.Time

	// Twin-and-diff state (active only when the DSM's diff mode is on).
	//
	// ver is the version of frame's content. Versions are per-block and
	// advance only at the owner, on the first write after a publish, so
	// they stay consistent as ownership migrates: a frame at version v
	// always holds exactly the content that was published as v.
	ver int64
	// snap marks frame's content as published at ver (served to a peer,
	// or installed from one): the next local write first snapshots it
	// into shadow as the diff base and bumps ver.
	snap bool
	// shadow is the diff base: for an owner, the twin — a copy of the
	// last published version; for a non-owner, the stale frame retained
	// when access was revoked. shadowVer is its version; a nil shadow
	// means no base is held.
	//dflint:frame
	shadow    []byte
	shadowVer int64

	// twin is the lazy-release merge base: a copy of the frame taken when
	// a non-home node made the block writable, so the release flush can
	// diff out exactly this interval's words. Unlike shadow it is a
	// correctness structure, active regardless of the transport diff
	// mode. Nil outside an LRC write interval.
	//dflint:frame
	twin []byte
}

// DSM is one node's view of the shared address space. It is written
// against the kernel interfaces, so the same code runs on the simulated
// cluster and over real UDP endpoints.
type DSM struct {
	node  kernel.Node
	ep    kernel.Transport
	space *Space
	proto Protocol
	// strat makes every consistency decision for proto; the DSM itself
	// is pure mechanism (see protocol.go).
	strat strategy

	blocks []blockState
	// roCopies lists blocks holding a non-owned read-only copy, for O(copies)
	// implicit invalidation at barriers.
	roCopies []int32
	// lrcDirty lists blocks this node wrote during the current interval
	// (lazy release consistency): non-home writable copies to flush at
	// the next release, plus home blocks whose writes become notices.
	// Each block appears at most once per interval.
	lrcDirty []int32

	// diffs enables twin-and-diff page shipping: revoked frames are
	// retained as diff bases, owners twin pages on the first write after a
	// publish, and page replies carry run-length diffs when the requester
	// holds a usable base. Off by default — the simulation keeps the
	// paper's whole-page byte accounting — and switched on cluster-wide by
	// the UDP binding. Must be set before traffic flows, identically on
	// every node.
	diffs bool

	// WakeFront controls where threads woken by a page arrival go in the
	// ready queue: the front for fork/join programs (the page is used
	// while still resident — the paper's second anti-thrashing mechanism)
	// or the back for iterative programs (fault frontloading).
	WakeFront bool

	outstanding int // fetches + invalidation rounds in flight
	quiescers   []kernel.Thread

	obs *obs.Obs
	ctr counters
}

// counters caches this node's registered DSM counters. Updates are
// atomic, so Stats() snapshots race-free from any goroutine — under the
// real-time binding, transport handlers mutate these while foreign
// goroutines read them.
type counters struct {
	readFaults, writeFaults, requests, served, redirected *obs.Counter
	invalsSent, invalsRecved, mirageDrops, busyDrops      *obs.Counter
	faultWaitNS, bytesIn, bytesOut                        *obs.Counter
	diffsSent, diffBytes, fullPages                       *obs.Counter
	lrcMerges, writeNotices, twinBytes                    *obs.Counter
}

// New creates the DSM instance for one node and registers its services on
// the node's transport endpoint. All nodes must be created before the
// first allocation.
func New(node kernel.Node, ep kernel.Transport, space *Space, proto Protocol) *DSM {
	o := obs.Of(node)
	d := &DSM{node: node, ep: ep, space: space, proto: proto, strat: strategyFor(proto), obs: o}
	d.ctr = counters{
		readFaults:   o.Counter("dsm.read_faults"),
		writeFaults:  o.Counter("dsm.write_faults"),
		requests:     o.Counter("dsm.requests"),
		served:       o.Counter("dsm.served"),
		redirected:   o.Counter("dsm.redirected"),
		invalsSent:   o.Counter("dsm.invals_sent"),
		invalsRecved: o.Counter("dsm.invals_recved"),
		mirageDrops:  o.Counter("dsm.mirage_drops"),
		busyDrops:    o.Counter("dsm.busy_drops"),
		faultWaitNS:  o.Counter("dsm.fault_wait_ns"),
		bytesIn:      o.Counter("dsm.bytes_in"),
		bytesOut:     o.Counter("dsm.bytes_out"),
		diffsSent:    o.Counter("dsm.diffs_sent"),
		diffBytes:    o.Counter("dsm.diff_bytes"),
		fullPages:    o.Counter("dsm.full_pages"),
		lrcMerges:    o.Counter("dsm.lrc_merges"),
		writeNotices: o.Counter("dsm.write_notices"),
		twinBytes:    o.Counter("dsm.twin_bytes"),
	}
	if len(space.blockStart) != 0 {
		panic("dsm: all DSMs must be created before the first Alloc")
	}
	space.dsms = append(space.dsms, d)
	ep.Register(SvcPage, kernel.Service{
		Name:       "dsm-page",
		Idempotent: false,
		Category:   kernel.CatData,
		Handler:    d.servePage,
	})
	ep.Register(SvcInval, kernel.Service{
		Name:       "dsm-inval",
		Idempotent: true,
		Category:   kernel.CatData,
		Handler:    d.serveInval,
	})
	ep.Register(SvcFlush, kernel.Service{
		Name:       "dsm-flush",
		Idempotent: false,
		Category:   kernel.CatData,
		Handler:    d.serveFlush,
	})
	return d
}

// Node returns the node this DSM belongs to.
func (d *DSM) Node() kernel.Node { return d.node }

// Space returns the shared space descriptor.
func (d *DSM) Space() *Space { return d.space }

// Protocol returns the page consistency protocol in use.
func (d *DSM) Protocol() Protocol { return d.proto }

// Stats returns a snapshot of this node's DSM counters. The counters are
// atomic, so the snapshot is safe to take from any goroutine while
// handlers are live (each field is individually consistent; the struct is
// not a single cut, which monotonic counters don't need).
func (d *DSM) Stats() Stats {
	return Stats{
		ReadFaults:   d.ctr.readFaults.Load(),
		WriteFaults:  d.ctr.writeFaults.Load(),
		Requests:     d.ctr.requests.Load(),
		Served:       d.ctr.served.Load(),
		Redirected:   d.ctr.redirected.Load(),
		InvalsSent:   d.ctr.invalsSent.Load(),
		InvalsRecved: d.ctr.invalsRecved.Load(),
		MirageDrops:  d.ctr.mirageDrops.Load(),
		BusyDrops:    d.ctr.busyDrops.Load(),
		FaultWait:    kernel.Duration(d.ctr.faultWaitNS.Load()),
		BytesIn:      d.ctr.bytesIn.Load(),
		BytesOut:     d.ctr.bytesOut.Load(),
		DiffsSent:    d.ctr.diffsSent.Load(),
		DiffBytes:    d.ctr.diffBytes.Load(),
		FullPages:    d.ctr.fullPages.Load(),
		LRCMerges:    d.ctr.lrcMerges.Load(),
		WriteNotices: d.ctr.writeNotices.Load(),
		TwinBytes:    d.ctr.twinBytes.Load(),
	}
}

// SetDiffs switches twin-and-diff page shipping on or off. Like the
// protocol choice it is a cluster-wide setting: call it on every node,
// with the same value, before any traffic flows.
func (d *DSM) SetDiffs(on bool) { d.diffs = on }

// DiffsEnabled reports whether twin-and-diff page shipping is on.
func (d *DSM) DiffsEnabled() bool { return d.diffs }

// addBlock is called by Space.Alloc for every new block.
func (d *DSM) addBlock(b int32, owner kernel.NodeID) {
	if int(b) != len(d.blocks) {
		panic("dsm: block sequence out of order")
	}
	st := blockState{probOwner: owner}
	if owner == d.node.ID() {
		st.owner = true
		st.access = accRO // upgraded (and marked touched) on first write
		st.frame = make([]byte, d.space.blockSize(int(b)))
	}
	d.blocks = append(d.blocks, st)
}

// --- Typed accessors (the mprotect-fault substitution). ---
//
// Each accessor checks the containing block's protection; on a miss it
// takes the fault path, which suspends the calling server thread and lets
// the node run other work while the page is fetched — the multithreaded
// overlap at the heart of the paper.

// ReadF64 reads the float64 at address a.
func (d *DSM) ReadF64(t kernel.Thread, a Addr) float64 {
	b := d.space.pageBlock[a>>pageShift]
	st := &d.blocks[b]
	if st.access == accNone {
		d.fault(t, int(b), false)
	}
	if m := d.space.monitor; m != nil {
		m.OnAccess(d.node.ID(), a, 8, false, d.node.Now())
	}
	off := a - Addr(d.space.blockStart[b])<<pageShift
	return math.Float64frombits(binary.LittleEndian.Uint64(st.frame[off:]))
}

// WriteF64 writes the float64 v at address a.
func (d *DSM) WriteF64(t kernel.Thread, a Addr, v float64) {
	b := d.space.pageBlock[a>>pageShift]
	st := &d.blocks[b]
	if st.access != accRW {
		d.fault(t, int(b), true)
	}
	if st.snap {
		d.snapshot(st)
	}
	if m := d.space.monitor; m != nil {
		m.OnAccess(d.node.ID(), a, 8, true, d.node.Now())
	}
	off := a - Addr(d.space.blockStart[b])<<pageShift
	binary.LittleEndian.PutUint64(st.frame[off:], math.Float64bits(v))
}

// ReadI64 reads the int64 at address a.
func (d *DSM) ReadI64(t kernel.Thread, a Addr) int64 {
	b := d.space.pageBlock[a>>pageShift]
	st := &d.blocks[b]
	if st.access == accNone {
		d.fault(t, int(b), false)
	}
	if m := d.space.monitor; m != nil {
		m.OnAccess(d.node.ID(), a, 8, false, d.node.Now())
	}
	off := a - Addr(d.space.blockStart[b])<<pageShift
	return int64(binary.LittleEndian.Uint64(st.frame[off:]))
}

// WriteI64 writes the int64 v at address a.
func (d *DSM) WriteI64(t kernel.Thread, a Addr, v int64) {
	b := d.space.pageBlock[a>>pageShift]
	st := &d.blocks[b]
	if st.access != accRW {
		d.fault(t, int(b), true)
	}
	if st.snap {
		d.snapshot(st)
	}
	if m := d.space.monitor; m != nil {
		m.OnAccess(d.node.ID(), a, 8, true, d.node.Now())
	}
	off := a - Addr(d.space.blockStart[b])<<pageShift
	binary.LittleEndian.PutUint64(st.frame[off:], uint64(v))
}

// snapshot is the copy-on-first-write twin: frame's content was published
// at st.ver, so before the first post-publish write it is copied into
// shadow as the diff base and the version advances. With diffs off only
// the publish mark is cleared — versions stay at zero cluster-wide.
func (d *DSM) snapshot(st *blockState) {
	st.snap = false
	if !d.diffs {
		return
	}
	if len(st.shadow) != len(st.frame) {
		st.shadow = make([]byte, len(st.frame))
	}
	copy(st.shadow, st.frame)
	st.shadowVer = st.ver
	st.ver++
}

// Readable reports whether address a can currently be read without
// faulting (used by tests and the pool placement heuristics).
func (d *DSM) Readable(a Addr) bool {
	return d.blocks[d.space.pageBlock[a>>pageShift]].access != accNone
}

// Writable reports whether address a can currently be written without
// faulting.
func (d *DSM) Writable(a Addr) bool {
	return d.blocks[d.space.pageBlock[a>>pageShift]].access == accRW
}

// --- Fault path. ---

func sufficient(a access, write bool) bool {
	if write {
		return a == accRW
	}
	return a != accNone
}

// FaultTrace, when non-nil, observes every fault (diagnostics hook).
var FaultTrace func(node kernel.NodeID, block int, write bool)

// fault suspends t until the block is accessible at the needed level.
func (d *DSM) fault(t kernel.Thread, b int, write bool) {
	if FaultTrace != nil {
		FaultTrace(d.node.ID(), b, write)
	}
	if write {
		d.ctr.writeFaults.Inc()
	} else {
		d.ctr.readFaults.Inc()
	}
	d.node.Charge(kernel.CatData, d.node.Model().FaultHandle)
	st := &d.blocks[b]
	t0 := d.node.Now()
	for !sufficient(st.access, write) {
		d.ensure(b, write)
		if sufficient(st.access, write) {
			// ensure completed synchronously (owner write-upgrade with an
			// empty copyset); do not park, nobody would wake us.
			break
		}
		st.waiting = append(st.waiting, waiter{t: t, write: write})
		t.Block()
	}
	wait := d.node.Now().Sub(t0)
	d.ctr.faultWaitNS.Add(int64(wait))
	if d.obs.Enabled() {
		var w int64
		if write {
			w = 1
		}
		d.obs.TraceSpan(int64(t0), int64(wait), "dsm", "fault",
			obs.Arg{Key: "block", Val: int64(b)}, obs.Arg{Key: "write", Val: w})
	}
}

// ensure starts whatever protocol action is needed to raise this block's
// access, unless one is already in flight.
func (d *DSM) ensure(b int, write bool) {
	st := &d.blocks[b]
	if st.fetching || st.invals > 0 {
		return // something already in flight; waiters recheck on install
	}
	if st.owner && write && st.access == accRO {
		// Write upgrade by the owner (first write to a virgin block, or
		// write-invalidate downgraded us while serving readers):
		// invalidate the copyset, no data transfer.
		st.touched = true
		d.strat.ownerUpgraded(d, b, st)
		d.startInvalidation(b)
		return
	}
	if st.owner {
		panic(fmt.Sprintf("dsm: node %d owner of block %d with access %d cannot ensure", d.node.ID(), b, st.access))
	}
	if write && d.strat.localWriteUpgrade(d, b, st) {
		// The strategy satisfied the write fault in place (LRC's
		// multi-writer upgrade of a held read copy); nothing in flight.
		return
	}
	st.fetching = true
	d.outstanding++
	d.sendRequest(b, write, st.probOwner)
}

func (d *DSM) sendRequest(b int, write bool, dst kernel.NodeID) {
	if dst == d.node.ID() {
		panic(fmt.Sprintf("dsm: node %d would request block %d from itself", d.node.ID(), b))
	}
	d.ctr.requests.Inc()
	req := pageReq{Block: int32(b), Write: write, HaveVer: -1}
	if st := &d.blocks[b]; d.diffs && len(st.shadow) == d.space.blockSize(b) {
		// Advertise the retained stale copy as a diff base. The base is
		// stable while the fetch is in flight: with no access there are no
		// local writes, and every revocation path only fires on held
		// copies.
		req.HaveVer = st.shadowVer
	}
	d.ep.RequestSized(dst, SvcPage, req, reqSize, d.space.blockSize(b), kernel.CatData, func(r any) {
		d.onPageReply(b, write, dst, r)
	})
}

// onPageReply handles the reply to one of our page requests. It runs in
// node context (kernel or a preempting thread).
func (d *DSM) onPageReply(b int, write bool, from kernel.NodeID, r any) {
	st := &d.blocks[b]
	switch m := r.(type) {
	case redirect:
		// Follow the probable-owner chain (path compression on the hint).
		st.probOwner = m.Owner
		d.ctr.redirected.Inc()
		d.sendRequest(b, write, m.Owner)
	case pageData:
		d.install(b, write, from, m)
	default:
		panic(fmt.Sprintf("dsm: unexpected page reply %T", r))
	}
}

// install places received page data, completing or continuing the fetch.
func (d *DSM) install(b int, write bool, from kernel.NodeID, m pageData) {
	st := &d.blocks[b]
	d.node.Charge(kernel.CatData, d.node.Model().PageInstall)
	d.ctr.bytesIn.Add(int64(len(m.Data)))
	if m.Diff {
		// The server diffed against the base we advertised in HaveVer;
		// adopt the base buffer as the new frame and patch it in place.
		// m.Data may alias a transport receive buffer, but diffApply
		// copies out of it before this callback returns.
		if len(st.shadow) != d.space.blockSize(b) {
			panic(fmt.Sprintf("dsm: node %d got a diff for block %d without a base", d.node.ID(), b))
		}
		st.frame = st.shadow
		st.shadow = nil
		if !diffApply(st.frame, m.Data) {
			panic(fmt.Sprintf("dsm: node %d got a malformed diff for block %d", d.node.ID(), b))
		}
	} else {
		if st.frame == nil {
			st.frame = make([]byte, d.space.blockSize(b))
		}
		if m.Data != nil {
			copy(st.frame, m.Data)
		} else {
			clear(st.frame) // virgin transfer: content is zeros
		}
	}
	// The installed content is published at m.Ver — the server holds (or
	// held) the identical bytes — so it is twin-snapshotted before our
	// first write. A full install keeps any old shadow: its (version,
	// content) pair is still valid and may serve future diffs.
	st.ver = m.Ver
	st.snap = true
	st.fetching = false
	st.acquired = d.node.Now()
	if m.GrantOwner {
		st.owner = true
		st.touched = true // conservative: we may write without faulting
		st.probOwner = d.node.ID()
		st.copyset = append(st.copyset[:0], m.Copyset...)
	}
	if mon := d.space.monitor; mon != nil {
		mon.OnPageInstall(d.node.ID(), from, b, m.GrantOwner, d.node.Now())
	}
	switch {
	case m.GrantOwner && write && d.strat.invalidateOnGrant() && len(st.copyset) > 0:
		// We own the block but read-only copies are out there; they must
		// be invalidated before we may write (IVY-style requester-driven
		// invalidation). Access stays None until all acks arrive.
		d.outstanding--
		d.startInvalidation(b)
	case m.GrantOwner:
		st.access = accRW
		st.copyset = st.copyset[:0]
		d.outstanding--
		d.wake(b)
	default:
		d.strat.installCopy(d, b, st, write)
		d.outstanding--
		d.wake(b)
	}
	d.checkQuiescent()
}

// startInvalidation sends invalidations to every copyset member and defers
// the RW grant until all acks arrive.
func (d *DSM) startInvalidation(b int) {
	st := &d.blocks[b]
	targets := make([]kernel.NodeID, 0, len(st.copyset))
	for _, n := range st.copyset {
		if n != d.node.ID() {
			targets = append(targets, n)
		}
	}
	st.copyset = st.copyset[:0]
	if len(targets) == 0 {
		st.access = accRW
		d.wake(b)
		return
	}
	st.invals = len(targets)
	d.outstanding++
	d.obs.Trace(int64(d.node.Now()), "dsm", "inval",
		obs.Arg{Key: "block", Val: int64(b)}, obs.Arg{Key: "copies", Val: int64(len(targets))})
	for _, n := range targets {
		d.ctr.invalsSent.Inc()
		d.ep.RequestAsync(n, SvcInval, invalReq{Block: int32(b)}, reqSize, kernel.CatData, func(any) {
			// Re-lookup: d.blocks may have grown since the request went out.
			bs := &d.blocks[b]
			bs.invals--
			if bs.invals == 0 {
				bs.access = accRW
				bs.acquired = d.node.Now()
				d.outstanding--
				d.wake(b)
				d.checkQuiescent()
			}
		})
	}
}

// wake makes every satisfied waiter runnable; unsatisfied waiters (writers
// woken by a read-only install) recheck in the fault loop and re-arm.
func (d *DSM) wake(b int) {
	st := &d.blocks[b]
	ws := st.waiting
	st.waiting = nil
	for _, w := range ws {
		d.node.Ready(w.t, d.WakeFront)
	}
}

// --- Serving. ---

// servePage handles a page request from another node.
func (d *DSM) servePage(from kernel.NodeID, req any) (any, int, kernel.Verdict) {
	m := req.(pageReq)
	b := int(m.Block)
	st := &d.blocks[b]
	if !st.owner {
		if st.probOwner == from {
			// Our hint says the requester owns this block, but it clearly
			// does not believe so: the grant that makes the hint true is
			// still in flight to it — its request overtook our earlier
			// reply, an ordering real UDP permits (the simulated Ethernet
			// delivers in send order, so this never fires there). A
			// redirect would point the requester at itself; drop instead,
			// and its retransmission arrives after the grant installs.
			d.ctr.busyDrops.Inc()
			return nil, 0, kernel.Drop
		}
		return redirect{Block: m.Block, Owner: st.probOwner}, reqSize, kernel.Reply
	}
	if st.fetching || st.invals > 0 {
		// Mid-transition (e.g. we just got ownership and are still
		// invalidating); the requester retries.
		d.ctr.busyDrops.Inc()
		return nil, 0, kernel.Drop
	}
	takesAway := d.strat.takesAway(m.Write)
	model := d.node.Model()
	if takesAway && model.MirageWindow > 0 {
		if held := d.node.Now().Sub(st.acquired); held < model.MirageWindow {
			d.ctr.mirageDrops.Inc()
			d.obs.Trace(int64(d.node.Now()), "dsm", "mirage_drop",
				obs.Arg{Key: "block", Val: int64(b)}, obs.Arg{Key: "from", Val: int64(from)})
			return nil, 0, kernel.Drop
		}
	}
	d.node.Charge(kernel.CatData, model.PageServe)
	if st.frame == nil {
		st.frame = make([]byte, d.space.blockSize(b))
	}
	var data []byte
	isDiff := false
	size := reqSize
	if st.touched {
		switch {
		case d.diffs && m.HaveVer >= 0 && m.HaveVer == st.ver:
			// The requester's retained copy is already the current
			// version; an empty diff transfers only the grant.
			isDiff = true
		case d.diffs && m.HaveVer >= 0 && st.shadow != nil && m.HaveVer == st.shadowVer:
			if dd, ok := diffEncode(st.shadow, st.frame, len(st.frame)/2); ok {
				data = dd
				isDiff = true
			}
			// A diff above half the frame ships the full page instead:
			// past that point the entry overhead plus the apply pass cost
			// more than the bytes they save.
		}
		if isDiff {
			d.ctr.diffsSent.Inc()
			d.ctr.diffBytes.Add(int64(len(data)))
		} else {
			data = make([]byte, len(st.frame))
			copy(data, st.frame)
			d.ctr.fullPages.Inc()
		}
		size = len(data) + reqSize
	}
	d.ctr.served.Inc()
	d.ctr.bytesOut.Add(int64(len(data)))
	if mon := d.space.monitor; mon != nil {
		mon.OnPageServe(d.node.ID(), from, b, takesAway, d.node.Now())
	}

	if takesAway {
		// Ownership moves to the requester (migratory always; write fault
		// under write-invalidate or implicit-invalidate).
		cs := st.copyset
		st.copyset = nil
		reply := pageData{Block: m.Block, Data: data, GrantOwner: true, Ver: st.ver, Diff: isDiff}
		if d.strat.shipsCopyset() {
			reply.Copyset = cs
		}
		st.owner = false
		st.access = accNone
		st.probOwner = from
		if d.diffs {
			// Retain the departing frame as a stale diff base — the next
			// fetch advertises it, and the buffer is patched in place if
			// the reply is a diff.
			st.shadow = st.frame
			st.shadowVer = st.ver
		}
		st.snap = false
		st.frame = nil
		return reply, size, kernel.Reply
	}
	// Non-owning copy: the strategy decides what the serve does to our
	// own state (write-invalidate records the copy and downgrades us;
	// implicit-invalidate and LRC just mark the content published).
	d.strat.servedCopy(d, b, st, from)
	return pageData{Block: m.Block, Data: data, Ver: st.ver, Diff: isDiff}, size, kernel.Reply
}

func appendUnique(s []kernel.NodeID, n kernel.NodeID) []kernel.NodeID {
	for _, x := range s {
		if x == n {
			return s
		}
	}
	return append(s, n)
}

// serveInval drops our read-only copy.
func (d *DSM) serveInval(from kernel.NodeID, req any) (any, int, kernel.Verdict) {
	m := req.(invalReq)
	st := &d.blocks[m.Block]
	d.ctr.invalsRecved.Inc()
	if !st.owner && st.access == accRO {
		st.access = accNone
		if d.diffs {
			// Retain the invalidated copy as a stale diff base for the
			// next fetch of this block.
			st.shadow = st.frame
			st.shadowVer = st.ver
		}
		st.frame = nil
	}
	return nil, 8, kernel.Reply
}

// --- Synchronization hooks. ---

// AtBarrier applies the protocol's synchronization-point rule: under
// implicit-invalidate every non-owned read-only copy is discarded with no
// messages; the other protocols only reset the copy bookkeeping.
func (d *DSM) AtBarrier() {
	d.strat.atBarrier(d)
}

// Quiesce blocks t until the node has no outstanding page operations, the
// paper's rule that "nodes delay at synchronization points until all
// outstanding page requests have been satisfied".
func (d *DSM) Quiesce(t kernel.Thread) {
	for d.outstanding > 0 {
		d.quiescers = append(d.quiescers, t)
		t.Block()
	}
}

func (d *DSM) checkQuiescent() {
	if d.outstanding != 0 {
		return
	}
	qs := d.quiescers
	d.quiescers = nil
	for _, t := range qs {
		d.node.Ready(t, true)
	}
}

// Outstanding reports in-flight page operations (fetches and invalidation
// rounds).
func (d *DSM) Outstanding() int { return d.outstanding }

// DebugBlock formats the protocol state of the block containing a, for
// diagnostics.
func (d *DSM) DebugBlock(a Addr) string {
	b := d.space.pageBlock[a>>pageShift]
	st := &d.blocks[b]
	return fmt.Sprintf("blk%d{acc=%d own=%v prob=%d cs=%v fetch=%v invals=%d wait=%d}",
		b, st.access, st.owner, st.probOwner, st.copyset, st.fetching, st.invals, len(st.waiting))
}

// Peek returns the float64 at address a if this node owns the containing
// block. It is a debugging/verification accessor (no protocol action, no
// cost) intended for use after a run completes.
func (d *DSM) Peek(a Addr) (float64, bool) {
	b := d.space.pageBlock[a>>pageShift]
	st := &d.blocks[b]
	if !st.owner || st.frame == nil {
		return 0, false
	}
	off := a - Addr(d.space.blockStart[b])<<pageShift
	return math.Float64frombits(binary.LittleEndian.Uint64(st.frame[off:])), true
}
