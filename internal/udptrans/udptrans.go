// Package udptrans implements the Packet protocol on real UDP sockets: a
// reliable request/reply datagram service with the paper's properties
// (§3). Only requests are buffered, and they are retransmitted (with
// capped, jittered exponential backoff) until the reply arrives; replies
// are regenerated by re-executing idempotent handlers, or replayed from a
// bounded per-peer cache for non-idempotent ones; a handler may drop a
// request, leaving recovery to the requester's retransmission — the paper's
// mutual-exclusion and Mirage-window mechanism.
//
// Requests are serviced asynchronously: the read loop only parses and
// enqueues, and a bounded worker pool executes handlers. That mirrors the
// paper's server threads and is what lets a handler itself issue a Call —
// the DSM page-request pattern — without deadlocking the endpoint, since
// replies are always matched on the read loop. Duplicate retransmissions of
// a request that is still executing are coalesced (the requester's
// retransmission recovers), so non-idempotent handlers run at most once per
// request even under duplication. A full worker queue sheds load the same
// way: the request is dropped and the retransmission carries the retry.
//
// Replies are validated against the pending call: a datagram only completes
// a call if its source address is the call's destination and its service id
// matches, so a stray or misdelivered datagram from a third node cannot
// complete the wrong call.
//
// The message path is allocation-free in steady state, and
// //dflint:hotpath marks on the read loop, dispatch, serve and reply
// matching let dflint's hotalloc rule hold it there:
//
//   - Receive and frame buffers come from a pool and are recycled once
//     their payload has been consumed. Decode does not copy: a request's
//     payload aliases the receive buffer, which stays alive until the
//     handler returns. Handlers must therefore not retain req (or return a
//     reply that aliases it and expect the bytes to survive; the reply
//     cache copies for that reason — the one deliberate per-request
//     allocation, and only for non-idempotent services).
//   - Peers are identified by netip.AddrPort, normalized with AddrKey so
//     the 4-byte and the IPv4-mapped 16-byte form of an address are one
//     key. The read loop interns source addresses in a bounded table and
//     hands every handler the same *net.UDPAddr for a peer: from is shared
//     and read-only, and a handler must not modify it.
//   - Call records, with their reply channel and retransmission timer, are
//     recycled through a per-endpoint free list, and Start/Await/Cancel
//     let a caller cancel a call without a context.
//
// Small one-way events to the same peer can additionally be coalesced
// into one datagram under a short flush window (Options.BatchWindow).
//
// This is the deployable sibling of package packet, which implements the
// identical protocol inside the deterministic cluster simulation. The
// simulation carries every experiment; udptrans carries the protocol onto
// a real network (see examples/packetnet). The transport-agnostic suite in
// internal/transconf runs the same scenarios — the paper's Figure 3 plus
// loss, duplication, and reordering sweeps — against both implementations;
// that shared suite is the equivalence argument between the simulated and
// the real transport.
package udptrans

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"filaments/internal/obs"
)

// MaxPayload bounds a datagram's payload (fits a DSM page group within a
// UDP datagram on loopback and most LANs).
const MaxPayload = 60 * 1024

// ErrClosed is returned by calls on a closed endpoint.
var ErrClosed = errors.New("udptrans: endpoint closed")

// ErrTimeout is returned when a call exhausts its retry budget.
var ErrTimeout = errors.New("udptrans: request timed out")

// NoRetry configures MaxRetries for fire-once calls: the request is sent
// exactly once and the call fails with ErrTimeout if no reply arrives
// within one base timeout.
const NoRetry = -1

// Handler services one request. Returning drop=true discards the request
// without replying; the requester will retransmit (the protocol's
// critical-section mechanism). Handlers run on the endpoint's worker pool,
// so they may block and may issue Calls through this or another endpoint;
// size Options.Workers above the deepest expected call chain, like the
// paper sizes server threads per node.
//
// req aliases a pooled receive buffer: it is valid only until the handler
// returns. Handlers that retain request bytes must copy them. from is the
// endpoint's interned address for the peer, shared by every datagram from
// it: handlers may keep it but must not modify it.
type Handler func(from *net.UDPAddr, req []byte) (reply []byte, drop bool)

// Service couples a handler with its replay policy.
type Service struct {
	Handler Handler
	// Idempotent handlers are re-executed for duplicate requests;
	// non-idempotent ones have their replies cached and replayed.
	Idempotent bool
}

// Options tunes an endpoint. The zero value selects every default.
type Options struct {
	// RetransmitTimeout is the base retry interval (default 50 ms); it
	// doubles on each retry up to MaxBackoff, with ±25% jitter so
	// synchronized retransmit storms decorrelate.
	RetransmitTimeout time.Duration
	// MaxBackoff caps the per-retry interval (default 1 s).
	MaxBackoff time.Duration
	// MaxRetries bounds retransmissions before ErrTimeout. Zero selects the
	// default of 10; use NoRetry for a fire-once call budget.
	MaxRetries int
	// Workers sizes the request-servicing pool (default 4). Handlers that
	// issue Calls occupy a worker while blocked, so the pool must exceed the
	// deepest handler→Call→handler chain the services can form.
	Workers int
	// QueueDepth bounds requests accepted but not yet being serviced
	// (default 64). When the queue is full, requests are dropped and the
	// requester's retransmission carries the retry — the protocol's own
	// backpressure.
	QueueDepth int
	// BatchWindow, when positive, coalesces events to the same peer into
	// one kindBatch datagram: an event is held back at most this long (or
	// until the batch nears MaxPayload) before the batch is flushed. Zero
	// sends every event immediately. Batching trades event latency for
	// per-datagram overhead, so keep the window well under the layered
	// protocols' retransmission timeouts.
	BatchWindow time.Duration

	// Fault-injection hooks for tests; all may be nil.

	// DropSend is consulted before each physical send and drops the
	// datagram when it returns true — loss injection.
	DropSend func(b []byte) bool
	// DelaySend returns an extra delay before the datagram is put on the
	// wire — delay/reorder injection.
	DelaySend func(b []byte) time.Duration
	// DupSend sends the datagram twice when it returns true — duplication
	// injection.
	DupSend func(b []byte) bool
}

// Stats counts protocol events, mirroring packet.Stats so transport health
// is reported identically for the simulated and the real transport.
type Stats struct {
	RequestsSent    int64
	Retransmits     int64
	Timeouts        int64 // calls that exhausted their retry budget
	RepliesSent     int64
	RepliesReceived int64
	Dropped         int64 // requests dropped by handlers or a full worker queue
	EventsDropped   int64 // one-way events dropped by a full worker queue
	EventsBatched   int64 // events coalesced into kindBatch datagrams
	BatchesSent     int64 // kindBatch datagrams flushed
	DupSuppressed   int64 // duplicates coalesced while the original executes
	CacheHits       int64 // non-idempotent duplicates answered from the reply cache
	BadReplies      int64 // replies rejected by peer/service validation
	InFlightHWM     int64 // high-water mark of requests queued or executing
	BytesSent       int64 // datagram bytes put on the wire (incl. headers)
	BytesRecved     int64 // datagram bytes read off the wire (incl. headers)
}

// replyMsg is what the read loop (or Cancel, or Close) hands a waiting
// call: a matched reply — the payload plus the pooled receive buffer it
// aliases — or, with buf nil, the error that ended the call.
type replyMsg struct {
	payload []byte
	buf     *[]byte
	err     error
}

// pendingCall is one outstanding call. Records are recycled through the
// endpoint's free list, so a call costs no allocation once the list is
// warm. A record is registered in Endpoint.pending under its seq from
// Start until a reply, Cancel or Close removes it — whoever removes it
// also posts the one message the reply channel ever carries for that seq,
// and does so under ep.mu. Await drains the channel under the same lock
// before the record is reused, so a reply that raced a cancellation or a
// timeout is recycled there and can never reach a later call.
type pendingCall struct {
	dst   *net.UDPAddr
	dstAP netip.AddrPort // AddrKey(dst): the source a valid reply carries
	svc   uint16
	seq   uint32
	frame *[]byte // the framed request, retransmitted as is
	reply chan replyMsg
	// timer paces retransmissions. It is created on first use and reused
	// with Reset; every exit from Await leaves it stopped and drained.
	timer *time.Timer
}

// CallID names a call begun with Start, for Await and Cancel.
type CallID struct {
	p   *pendingCall
	seq uint32
}

// callKey identifies one request from one peer: the requester's
// normalized address and its sequence number. It keys duplicate
// coalescing and the reply cache.
type callKey struct {
	addr netip.AddrPort
	seq  uint32
}

// inbound is a parsed request or event handed from the read loop to the
// worker pool. payload aliases buf, the pooled receive buffer, which the
// worker recycles after servicing.
type inbound struct {
	from    *net.UDPAddr // interned, shared, read-only
	svc     uint16
	seq     uint32
	payload []byte
	buf     *[]byte
	key     callKey
	event   bool
	batch   bool // payload is a kindBatch body of length-prefixed events
}

// peerBatch accumulates events bound for one peer while the flush window
// is open. Guarded by Endpoint.mu; addr is immutable.
type peerBatch struct {
	addr  *net.UDPAddr
	buf   *[]byte // framed kindBatch datagram under construction; nil when empty
	timer *time.Timer
}

// AddrKey normalizes a UDP address to the comparable form every peer
// table in this package and its users is keyed by. The read loop sees an
// IPv4 source in its 4-byte form, while net.ResolveUDPAddr yields the
// 16-byte IPv4-mapped form of the same address; Unmap makes both one key.
func AddrKey(a *net.UDPAddr) netip.AddrPort {
	return unmapped(a.AddrPort())
}

func unmapped(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// defaultPeerCap bounds the read loop's source-address intern table.
const defaultPeerCap = 1024

// peerTable interns datagram source addresses, so handlers receive one
// shared *net.UDPAddr per peer instead of a fresh one per datagram. It is
// owned by the read loop and needs no lock. At its cap an arbitrary entry
// is evicted: handlers holding the evicted pointer keep a valid address,
// and its peer is simply interned again on its next datagram.
type peerTable struct {
	m   map[netip.AddrPort]*net.UDPAddr
	cap int
}

func (t *peerTable) intern(ap netip.AddrPort) *net.UDPAddr {
	if a, ok := t.m[ap]; ok {
		return a
	}
	if len(t.m) >= t.cap {
		for k := range t.m {
			delete(t.m, k)
			break
		}
	}
	a := net.UDPAddrFromAddrPort(ap)
	t.m[ap] = a
	return a
}

// Endpoint is one node's protocol instance on a UDP socket.
type Endpoint struct {
	conn *net.UDPConn
	opts Options

	mu        sync.Mutex
	services  map[uint16]Service
	evHandler func(from *net.UDPAddr, payload []byte)
	pending   map[uint32]*pendingCall
	free      []*pendingCall // recycled call records
	seq       uint32
	// replyCache replays replies of non-idempotent services, keyed by
	// requester and seq, bounded FIFO.
	replyCache map[callKey][]byte
	cacheFIFO  []callKey
	// inFlight marks requests accepted for servicing (queued or executing),
	// keyed like replyCache; duplicates arriving meanwhile are coalesced.
	inFlight map[callKey]struct{}
	// batches holds the per-peer event batches awaiting flush (BatchWindow
	// mode only).
	batches map[netip.AddrPort]*peerBatch
	closed  bool

	// peers is the read loop's source-address intern table.
	peers peerTable

	// reg holds the endpoint's counters under the same names the sim
	// transport registers on its node, so cluster aggregation lines the
	// two bindings up. Every stat write goes through an atomic counter —
	// one uniform discipline, whether or not ep.mu happens to be held.
	reg *obs.Registry
	ctr counters

	// onRetransmit, when set, observes every retransmission (the
	// real-time binding emits trace events through it). Stored
	// atomically: it is installed after Listen and read by callers.
	onRetransmit atomic.Value // func(svc uint16, attempt int)
	// onEventDrop, when set, observes every event discarded by a full
	// worker queue — the loss that silently delays barrier releases.
	onEventDrop atomic.Value // func()

	reqCh chan inbound
	stop  chan struct{}
	wg    sync.WaitGroup
}

// counters caches the endpoint's registered counters.
type counters struct {
	requestsSent, retransmits, timeouts, repliesSent, repliesReceived *obs.Counter
	dropped, dupSuppressed, cacheHits, badReplies, inFlightHWM        *obs.Counter
	eventsDropped, eventsBatched, batchesSent                         *obs.Counter
	bytesSent, bytesRecved                                            *obs.Counter
}

// resolveOptions fills in defaults; MaxRetries uses NoRetry as the explicit
// zero-retry sentinel because the zero value must keep meaning "default".
func resolveOptions(opts Options) Options {
	if opts.RetransmitTimeout == 0 {
		opts.RetransmitTimeout = 50 * time.Millisecond
	}
	if opts.MaxBackoff == 0 {
		opts.MaxBackoff = time.Second
	}
	switch {
	case opts.MaxRetries == 0:
		opts.MaxRetries = 10
	case opts.MaxRetries < 0:
		opts.MaxRetries = 0
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	return opts
}

// Listen opens an endpoint on addr (e.g. "127.0.0.1:0").
func Listen(addr string, opts Options) (*Endpoint, error) {
	return listen(addr, opts, defaultPeerCap)
}

// listen is Listen with the intern table's cap as a parameter (tests
// lower it to exercise eviction).
func listen(addr string, opts Options, peerCap int) (*Endpoint, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	opts = resolveOptions(opts)
	reg := obs.NewRegistry()
	ep := &Endpoint{
		conn:       conn,
		opts:       opts,
		services:   make(map[uint16]Service),
		pending:    make(map[uint32]*pendingCall),
		replyCache: make(map[callKey][]byte),
		inFlight:   make(map[callKey]struct{}),
		batches:    make(map[netip.AddrPort]*peerBatch),
		peers:      peerTable{m: make(map[netip.AddrPort]*net.UDPAddr), cap: peerCap},
		reg:        reg,
		ctr: counters{
			requestsSent:    reg.Counter("net.requests_sent"),
			retransmits:     reg.Counter("net.retransmits"),
			timeouts:        reg.Counter("net.timeouts"),
			repliesSent:     reg.Counter("net.replies_sent"),
			repliesReceived: reg.Counter("net.replies_received"),
			dropped:         reg.Counter("net.dropped"),
			dupSuppressed:   reg.Counter("net.dup_suppressed"),
			cacheHits:       reg.Counter("net.cache_hits"),
			badReplies:      reg.Counter("net.bad_replies"),
			inFlightHWM:     reg.Counter("net.inflight_hwm"),
			eventsDropped:   reg.Counter("net.events_dropped"),
			eventsBatched:   reg.Counter("net.events_batched"),
			batchesSent:     reg.Counter("net.batches_sent"),
			bytesSent:       reg.Counter("net.bytes_sent"),
			bytesRecved:     reg.Counter("net.bytes_recved"),
		},
		reqCh: make(chan inbound, opts.QueueDepth),
		stop:  make(chan struct{}),
	}
	ep.wg.Add(1 + opts.Workers)
	go ep.readLoop()
	for i := 0; i < opts.Workers; i++ {
		go ep.worker()
	}
	return ep, nil
}

// Addr returns the endpoint's bound address.
func (ep *Endpoint) Addr() *net.UDPAddr { return ep.conn.LocalAddr().(*net.UDPAddr) }

// Stats returns a snapshot of protocol counters. The counters are
// atomic, so the snapshot needs no lock and is safe to take from any
// goroutine during live traffic (each field is individually consistent;
// the struct is not a single cut, which monotonic counters don't need).
func (ep *Endpoint) Stats() Stats {
	return Stats{
		RequestsSent:    ep.ctr.requestsSent.Load(),
		Retransmits:     ep.ctr.retransmits.Load(),
		Timeouts:        ep.ctr.timeouts.Load(),
		RepliesSent:     ep.ctr.repliesSent.Load(),
		RepliesReceived: ep.ctr.repliesReceived.Load(),
		Dropped:         ep.ctr.dropped.Load(),
		EventsDropped:   ep.ctr.eventsDropped.Load(),
		EventsBatched:   ep.ctr.eventsBatched.Load(),
		BatchesSent:     ep.ctr.batchesSent.Load(),
		DupSuppressed:   ep.ctr.dupSuppressed.Load(),
		CacheHits:       ep.ctr.cacheHits.Load(),
		BadReplies:      ep.ctr.badReplies.Load(),
		InFlightHWM:     ep.ctr.inFlightHWM.Load(),
		BytesSent:       ep.ctr.bytesSent.Load(),
		BytesRecved:     ep.ctr.bytesRecved.Load(),
	}
}

// Metrics returns the endpoint's counter registry for aggregation into a
// cluster-wide view (obs.Aggregate).
func (ep *Endpoint) Metrics() *obs.Registry { return ep.reg }

// SetRetransmitHook installs fn, called once per retransmission with the
// service id and the retry attempt number (1-based). The real-time
// binding uses it to emit trace events. Safe to call concurrently with
// traffic; pass nil to leave retransmissions unobserved.
func (ep *Endpoint) SetRetransmitHook(fn func(svc uint16, attempt int)) {
	ep.onRetransmit.Store(fn)
}

// SetEventDropHook installs fn, called once per one-way event discarded
// because the worker queue was full. The real-time binding uses it to
// emit a trace instant, making barrier-release loss visible instead of
// silent. Safe to call concurrently with traffic.
func (ep *Endpoint) SetEventDropHook(fn func()) {
	ep.onEventDrop.Store(fn)
}

// Close shuts the endpoint down; outstanding calls fail with ErrClosed.
// Buffered event batches are flushed first. It must not be called from a
// handler (the handler's worker is waited on).
func (ep *Endpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	for seq, p := range ep.pending {
		p.reply <- replyMsg{err: ErrClosed}
		delete(ep.pending, seq)
	}
	var flush []*peerBatch
	for _, b := range ep.batches {
		if b.timer != nil {
			b.timer.Stop()
		}
		if b.buf != nil {
			flush = append(flush, b)
		}
	}
	ep.mu.Unlock()
	// The socket is still open: give buffered events their last chance
	// (they are unreliable by contract, but dropping a whole batch at
	// shutdown would systematically lose the final barrier release).
	for _, b := range flush {
		bp := b.buf
		b.buf = nil
		ep.ctr.batchesSent.Inc()
		ep.send(*bp, b.addr) //nolint:errcheck // best-effort at shutdown
		putBuf(bp)
	}
	close(ep.stop)
	err := ep.conn.Close()
	ep.wg.Wait()
	return err
}

// Outstanding reports how many calls await replies (the paper's
// invariant: never more than the messages between synchronization
// points). It is zero whenever no Call is in flight; a residue after all
// callers have returned means the endpoint leaked request state.
func (ep *Endpoint) Outstanding() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.pending)
}

// Register installs a service under id.
func (ep *Endpoint) Register(id uint16, s Service) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if _, dup := ep.services[id]; dup {
		panic(fmt.Sprintf("udptrans: service %d registered twice", id))
	}
	ep.services[id] = s
}

// Unregister removes the service registered under id, so the id can be
// registered again later. In-flight requests already handed to a worker
// still complete; new requests for the id are ignored (the requester's
// retransmission would carry them, so only quiescent services — every
// caller past its final synchronization point — should be unregistered).
// This is what lets a long-lived endpoint host many kernel stacks over
// its lifetime: each run registers its services, runs to quiescence, and
// unregisters, leaving the socket (and its peers' reply caches) alive.
func (ep *Endpoint) Unregister(id uint16) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	delete(ep.services, id)
}

// SetEventHandler installs the receiver for one-way event datagrams. Like
// service handlers, it runs on the worker pool; the payload aliases a
// pooled buffer and is valid only until the handler returns. It must be
// installed before events flow.
func (ep *Endpoint) SetEventHandler(h func(from *net.UDPAddr, payload []byte)) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.evHandler = h
}

// SendEvent transmits an unreliable one-way datagram to dst: no
// retransmission and no reply. With Options.BatchWindow set, the event
// may be coalesced with others to the same peer and flushed within the
// window. Safe for concurrent use.
func (ep *Endpoint) SendEvent(dst *net.UDPAddr, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("udptrans: event of %d bytes exceeds MaxPayload", len(payload))
	}
	if ep.opts.BatchWindow > 0 {
		return ep.batchEvent(dst, payload)
	}
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return ErrClosed
	}
	ep.mu.Unlock()
	fp := getBuf()
	*fp = appendFrame((*fp)[:0], header{kind: kindEvent}, payload)
	err := ep.send(*fp, dst)
	putBuf(fp)
	return err
}

// batchEvent appends one event to dst's pending batch, flushing when the
// batch nears the payload bound, and arms the flush-window timer.
func (ep *Endpoint) batchEvent(dst *net.UDPAddr, payload []byte) error {
	key := AddrKey(dst)
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return ErrClosed
	}
	b := ep.batches[key]
	if b == nil {
		b = &peerBatch{addr: dst}
		ep.batches[key] = b
	}
	// Flush early if this event would overflow the datagram (entry cost:
	// payload plus a ≤10-byte uvarint length prefix).
	var full *[]byte
	if b.buf != nil && len(*b.buf)+len(payload)+10 > frameCap {
		full = b.buf
		b.buf = nil
	}
	if b.buf == nil {
		bp := getBuf()
		*bp = appendFrame((*bp)[:0], header{kind: kindBatch}, nil)
		b.buf = bp
		if b.timer == nil {
			b.timer = time.AfterFunc(ep.opts.BatchWindow, func() { ep.flushBatch(b) })
		} else {
			b.timer.Reset(ep.opts.BatchWindow)
		}
	}
	*b.buf = appendBatchEntry(*b.buf, payload)
	ep.ctr.eventsBatched.Inc()
	ep.mu.Unlock()

	if full != nil {
		ep.ctr.batchesSent.Inc()
		err := ep.send(*full, dst)
		putBuf(full)
		return err
	}
	return nil
}

// flushBatch is the flush-window timer callback: it detaches b's buffer
// under the lock and sends it outside (send may itself take the lock on
// the delay-injection path).
func (ep *Endpoint) flushBatch(b *peerBatch) {
	ep.mu.Lock()
	bp := b.buf
	b.buf = nil
	closed := ep.closed
	ep.mu.Unlock()
	if bp == nil || closed {
		putBuf(bp)
		return
	}
	ep.ctr.batchesSent.Inc()
	ep.send(*bp, b.addr) //nolint:errcheck // unreliable by contract
	putBuf(bp)
}

// Call sends a request to dst and blocks until the reply arrives or the
// retry budget is exhausted. Safe for concurrent use.
func (ep *Endpoint) Call(dst *net.UDPAddr, svc uint16, req []byte) ([]byte, error) {
	return ep.CallContext(context.Background(), dst, svc, req)
}

// CallContext is Call with a deadline/cancellation context: the call fails
// with ctx.Err() as soon as ctx is done, independent of the retry budget.
// The returned reply is owned by the caller.
func (ep *Endpoint) CallContext(ctx context.Context, dst *net.UDPAddr, svc uint16, req []byte) ([]byte, error) {
	payload, buf, err := ep.CallBuffered(ctx, dst, svc, req)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), payload...)
	Release(buf)
	return out, nil
}

// CallBuffered is CallContext without the defensive copy: the reply
// payload aliases a pooled receive buffer, which the caller must pass to
// Release once the payload has been fully consumed. The real-time
// transport uses it to decode replies with zero copies.
func (ep *Endpoint) CallBuffered(ctx context.Context, dst *net.UDPAddr, svc uint16, req []byte) ([]byte, *[]byte, error) {
	id, err := ep.Start(dst, svc, req)
	if err != nil {
		return nil, nil, err
	}
	return ep.Await(ctx, id)
}

// Release recycles a receive buffer returned by CallBuffered or Await.
// A nil buffer is ignored.
func Release(buf *[]byte) { putBuf(buf) }

// ErrCanceled is returned by Await for a call ended by Cancel.
var ErrCanceled = errors.New("udptrans: call canceled")

// Start begins a call: it frames req (so the caller may reuse req as soon
// as Start returns) and registers the call, but sends nothing. Await then
// transmits it and waits for the reply, and Cancel may end it from any
// goroutine at any time. Every successful Start must be matched by exactly
// one Await, which releases the call's resources.
func (ep *Endpoint) Start(dst *net.UDPAddr, svc uint16, req []byte) (CallID, error) {
	if len(req) > MaxPayload {
		return CallID{}, fmt.Errorf("udptrans: request of %d bytes exceeds MaxPayload", len(req))
	}
	dstAP := AddrKey(dst)
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return CallID{}, ErrClosed
	}
	ep.seq++
	p := ep.newCall()
	p.dst, p.dstAP, p.svc, p.seq = dst, dstAP, svc, ep.seq
	ep.pending[p.seq] = p
	ep.mu.Unlock()
	p.frame = getBuf()
	*p.frame = appendFrame((*p.frame)[:0], header{kind: kindRequest, svc: svc, seq: p.seq}, req)
	return CallID{p: p, seq: p.seq}, nil
}

// newCall takes a record off the free list, or makes the first one of a
// new concurrency high-water mark. Called with ep.mu held.
func (ep *Endpoint) newCall() *pendingCall {
	if n := len(ep.free); n > 0 {
		p := ep.free[n-1]
		ep.free = ep.free[:n-1]
		return p
	}
	//dflint:allow hotalloc a record is made once per concurrency high-water mark, then recycled
	return &pendingCall{reply: make(chan replyMsg, 1)}
}

// Await sends the call begun by Start and blocks until the reply arrives,
// ctx is done, Cancel ends the call, the endpoint closes, or the retry
// budget is exhausted. On success the payload aliases a pooled receive
// buffer, returned alongside it for Release. A ctx that is already done
// fails the call before anything is sent.
func (ep *Endpoint) Await(ctx context.Context, id CallID) ([]byte, *[]byte, error) {
	p := id.p
	defer ep.retire(p)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	select {
	case r := <-p.reply: // canceled or closed before Await began
		return r.payload, r.buf, r.err
	default:
	}
	ep.ctr.requestsSent.Inc()
	for attempt := 0; attempt <= ep.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			ep.ctr.retransmits.Inc()
			if fn, _ := ep.onRetransmit.Load().(func(svc uint16, attempt int)); fn != nil {
				fn(p.svc, attempt)
			}
		}
		if err := ep.send(*p.frame, p.dst); err != nil {
			return nil, nil, err
		}
		d := backoffInterval(ep.opts.RetransmitTimeout, ep.opts.MaxBackoff, attempt)
		if p.timer == nil {
			p.timer = time.NewTimer(d)
		} else {
			p.timer.Reset(d)
		}
		select {
		case r := <-p.reply:
			stopTimer(p.timer)
			return r.payload, r.buf, r.err
		case <-ctx.Done():
			stopTimer(p.timer)
			return nil, nil, ctx.Err()
		case <-p.timer.C:
		}
	}
	ep.ctr.timeouts.Inc()
	return nil, nil, ErrTimeout
}

// stopTimer stops a timer whose channel has not been received from since
// its last Reset, draining a tick that already fired. Under the pre-Go
// 1.23 timer semantics this module builds with, a tick that fired is
// buffered in t.C (or about to be), and a Reset that left it there would
// fire the next call's first wait at once — a spurious retransmission.
// Under the 1.23 semantics Stop reports true in that state, so the drain
// never blocks.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		<-t.C
	}
}

// retire ends a call's registration and recycles its record. A message
// posted to the record after Await stopped listening — a reply that
// raced a cancellation or a timeout — is drained here under ep.mu, after
// which nothing can post to the record again, and its receive buffer is
// recycled.
func (ep *Endpoint) retire(p *pendingCall) {
	ep.mu.Lock()
	if ep.pending[p.seq] == p {
		delete(ep.pending, p.seq)
	}
	var stranded *[]byte
	select {
	case r := <-p.reply:
		stranded = r.buf
	default:
	}
	frame := p.frame
	p.dst, p.frame = nil, nil
	ep.free = append(ep.free, p)
	ep.mu.Unlock()
	putBuf(stranded)
	putBuf(frame)
}

// Cancel ends the call id if it is still outstanding: its Await returns
// ErrCanceled and retransmission stops. Canceling a call that already
// finished is a no-op, even after its record was reused by a later call.
// Safe for concurrent use.
func (ep *Endpoint) Cancel(id CallID) {
	ep.mu.Lock()
	if p := id.p; p != nil && ep.pending[id.seq] == p {
		delete(ep.pending, id.seq)
		p.reply <- replyMsg{err: ErrCanceled}
	}
	ep.mu.Unlock()
}

// backoffBase is the deterministic part of the retry schedule: exponential
// from base, capped at max.
func backoffBase(base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// backoffInterval applies ±25% jitter to the capped exponential schedule so
// retransmissions from nodes that lost the same frame decorrelate.
func backoffInterval(base, max time.Duration, attempt int) time.Duration {
	d := backoffBase(base, max, attempt)
	return time.Duration(float64(d) * (0.75 + 0.5*rand.Float64()))
}

// send puts one datagram on the wire, applying the fault-injection hooks:
// a dropped datagram is discarded, a delayed one is sent from a timer
// goroutine, a duplicated one is sent twice. A closed-socket write error
// is returned even from the duplicate send, so callers in a retry loop
// stop instead of spinning against a dead socket.
func (ep *Endpoint) send(b []byte, to *net.UDPAddr) error {
	if ep.opts.DropSend != nil && ep.opts.DropSend(b) {
		return nil
	}
	if ep.opts.DelaySend != nil {
		if d := ep.opts.DelaySend(b); d > 0 {
			ep.sendLater(b, to, d)
			return nil
		}
	}
	n, err := ep.conn.WriteToUDP(b, to)
	if err != nil {
		return err
	}
	ep.ctr.bytesSent.Add(int64(n))
	if ep.opts.DupSend != nil && ep.opts.DupSend(b) {
		// The duplicate is injected loss-recovery traffic, so its failure
		// is normally fine — except a closed socket, which means every
		// future send fails too and the caller's retry loop must stop.
		if n, err := ep.conn.WriteToUDP(b, to); err == nil {
			ep.ctr.bytesSent.Add(int64(n))
		} else if errors.Is(err, net.ErrClosed) {
			return err
		}
	}
	return nil
}

// sendLater puts a copy of b on the wire after d, from a timer goroutine
// (delay/reorder injection). Endpoint shutdown cancels the pending send.
func (ep *Endpoint) sendLater(b []byte, to *net.UDPAddr, d time.Duration) {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.wg.Add(1)
	ep.mu.Unlock()
	//dflint:allow hotalloc delay injection is a test fault hook; the delayed copy must outlive the caller's frame
	buf := append([]byte(nil), b...)
	//dflint:allow hotalloc delay injection is a test fault hook; each delayed datagram gets its own timer goroutine
	go func() {
		defer ep.wg.Done()
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
			if n, err := ep.conn.WriteToUDP(buf, to); err == nil {
				ep.ctr.bytesSent.Add(int64(n))
			}
		case <-ep.stop:
		}
	}()
}

// readLoop parses datagrams and routes them: replies complete pending calls
// directly (never blocking on handlers), requests are enqueued for the
// worker pool. Every datagram is read into a pooled buffer whose ownership
// follows the payload — to a worker for requests and events, to the caller
// for replies — and is recycled once the payload has been consumed.
//
//dflint:hotpath
func (ep *Endpoint) readLoop() {
	defer ep.wg.Done()
	for {
		bp := getBuf()
		buf := (*bp)[:frameCap]
		n, src, err := ep.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			putBuf(bp)
			return // closed
		}
		ep.ctr.bytesRecved.Add(int64(n))
		h, payload, ok := decode(buf[:n])
		if !ok {
			putBuf(bp)
			continue
		}
		src = unmapped(src)
		switch h.kind {
		case kindRequest:
			ep.dispatchRequest(ep.peers.intern(src), src, h, payload, bp)
		case kindReply:
			ep.handleReply(src, h, payload, bp)
		case kindEvent:
			ep.dispatchEvent(ep.peers.intern(src), payload, bp, false)
		case kindBatch:
			ep.dispatchEvent(ep.peers.intern(src), payload, bp, true)
		}
	}
}

// dispatchRequest hands a request to the worker pool. A duplicate of a
// request already queued or executing is coalesced; a full queue drops the
// request (the retransmission carries the retry).
//
//dflint:hotpath
func (ep *Endpoint) dispatchRequest(from *net.UDPAddr, src netip.AddrPort, h header, payload []byte, bp *[]byte) {
	key := callKey{addr: src, seq: h.seq}
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		putBuf(bp)
		return
	}
	if _, busy := ep.inFlight[key]; busy {
		ep.mu.Unlock()
		ep.ctr.dupSuppressed.Inc()
		putBuf(bp)
		return
	}
	ep.inFlight[key] = struct{}{}
	n := int64(len(ep.inFlight))
	ep.mu.Unlock()
	ep.ctr.inFlightHWM.SetMax(n)

	select {
	case ep.reqCh <- inbound{from: from, svc: h.svc, seq: h.seq, payload: payload, buf: bp, key: key}:
	default:
		ep.mu.Lock()
		delete(ep.inFlight, key)
		ep.mu.Unlock()
		ep.ctr.dropped.Inc()
		putBuf(bp)
	}
}

// dispatchEvent hands a one-way event (or a batch of them) to the worker
// pool. Events are unreliable by contract, so a full queue drops them —
// but counted and hooked, not silently: a lost barrier-release event costs
// a retransmission round-trip upstream, and net.events_dropped is how that
// shows up in /metrics.
//
//dflint:hotpath
func (ep *Endpoint) dispatchEvent(from *net.UDPAddr, payload []byte, bp *[]byte, batch bool) {
	ep.mu.Lock()
	if ep.closed || ep.evHandler == nil {
		ep.mu.Unlock()
		putBuf(bp)
		return
	}
	ep.mu.Unlock()
	select {
	case ep.reqCh <- inbound{from: from, payload: payload, buf: bp, event: true, batch: batch}:
	default:
		ep.ctr.eventsDropped.Inc()
		if fn, _ := ep.onEventDrop.Load().(func()); fn != nil {
			fn()
		}
		putBuf(bp)
	}
}

func (ep *Endpoint) worker() {
	defer ep.wg.Done()
	for {
		select {
		case in := <-ep.reqCh:
			ep.serve(in)
		case <-ep.stop:
			return
		}
	}
}

const replyCacheSize = 256

// serve executes one request or event on a pool worker and recycles the
// inbound's receive buffer. A request's in-flight mark is cleared only
// after serveRequest has cached its reply, so there is no window where a
// duplicate of a non-idempotent request could re-execute.
//
//dflint:hotpath
func (ep *Endpoint) serve(in inbound) {
	if in.event {
		ep.serveEvent(in)
	} else {
		ep.serveRequest(in)
		ep.mu.Lock()
		delete(ep.inFlight, in.key)
		ep.mu.Unlock()
	}
	putBuf(in.buf)
}

// serveEvent delivers an event, or each event of a batch, to the event
// handler.
func (ep *Endpoint) serveEvent(in inbound) {
	ep.mu.Lock()
	h := ep.evHandler
	ep.mu.Unlock()
	if h == nil {
		return
	}
	if !in.batch {
		h(in.from, in.payload)
		return
	}
	for body := in.payload; ; {
		entry, rest, ok := nextBatchEntry(body)
		if !ok {
			return
		}
		h(in.from, entry)
		body = rest
	}
}

// serveRequest replays the cached reply for a non-idempotent duplicate,
// or runs the handler and replies.
func (ep *Endpoint) serveRequest(in inbound) {
	ep.mu.Lock()
	s, ok := ep.services[in.svc]
	if !ok {
		ep.mu.Unlock()
		return
	}
	if !s.Idempotent {
		if cached, dup := ep.replyCache[in.key]; dup {
			ep.mu.Unlock()
			ep.ctr.cacheHits.Inc()
			ep.ctr.repliesSent.Inc()
			ep.sendReply(in.from, in.svc, in.seq, cached)
			return
		}
	}
	ep.mu.Unlock()

	reply, drop := s.Handler(in.from, in.payload)
	if drop {
		ep.ctr.dropped.Inc()
		return
	}
	if !s.Idempotent {
		// Copy: the handler may have returned a reply aliasing the request
		// payload, whose pooled buffer is recycled when serve returns.
		//dflint:allow hotalloc non-idempotent replies are cached, and the cache must own its bytes
		owned := append([]byte(nil), reply...)
		ep.mu.Lock()
		if len(ep.cacheFIFO) >= replyCacheSize {
			delete(ep.replyCache, ep.cacheFIFO[0])
			ep.cacheFIFO = ep.cacheFIFO[1:]
		}
		ep.replyCache[in.key] = owned
		ep.cacheFIFO = append(ep.cacheFIFO, in.key)
		ep.mu.Unlock()
	}
	ep.ctr.repliesSent.Inc()
	ep.sendReply(in.from, in.svc, in.seq, reply)
}

func (ep *Endpoint) sendReply(to *net.UDPAddr, svc uint16, seq uint32, reply []byte) {
	fp := getBuf()
	*fp = appendFrame((*fp)[:0], header{kind: kindReply, svc: svc, seq: seq}, reply)
	ep.send(*fp, to) //nolint:errcheck // best-effort, like UDP
	putBuf(fp)
}

// handleReply completes the pending call identified by the reply's seq,
// after validating that the reply came from the call's destination peer and
// carries the call's service id; anything else is a stray or forged
// datagram and is dropped. The reply is posted to the call under ep.mu, in
// the same critical section that unregisters it, so Await's retire — which
// drains under the lock — either sees it or the call is still registered.
// The receive buffer travels with the payload to the caller (Release) or
// is recycled here when no call claims it.
//
//dflint:hotpath
func (ep *Endpoint) handleReply(src netip.AddrPort, h header, payload []byte, bp *[]byte) {
	ep.mu.Lock()
	p, ok := ep.pending[h.seq]
	if !ok {
		ep.mu.Unlock()
		putBuf(bp)
		return
	}
	if p.svc != h.svc || p.dstAP != src {
		ep.mu.Unlock()
		ep.ctr.badReplies.Inc()
		putBuf(bp)
		return
	}
	delete(ep.pending, h.seq)
	p.reply <- replyMsg{payload: payload, buf: bp}
	ep.mu.Unlock()
	ep.ctr.repliesReceived.Inc()
}
