package rtnode

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"net"
	"net/netip"
	"sync"

	"filaments/internal/kernel"
	"filaments/internal/obs"
	"filaments/internal/udptrans"
)

// Codec selects the payload wire encoding. The codec is a cluster-wide
// setting — every node must run the same one, like the protocol itself.
type Codec int

const (
	// CodecBinary is the hand-rolled tagged binary codec (codec.go): zero
	// codec allocations on the page path, gob escape hatch for unregistered
	// types. The default.
	CodecBinary Codec = iota
	// CodecGob is the previous release's framing, bit for bit: every
	// payload as one raw gob stream. Kept for one release as the
	// `-codec=gob` fallback.
	CodecGob
)

// ParseCodec maps the CLI flag spelling to a Codec.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "binary":
		return CodecBinary, nil
	case "gob":
		return CodecGob, nil
	default:
		return 0, fmt.Errorf("unknown codec %q (supported: binary, gob)", s)
	}
}

func (c Codec) String() string {
	if c == CodecGob {
		return "gob"
	}
	return "binary"
}

// Transport implements kernel.Transport over a udptrans UDP endpoint.
// Payloads cross the wire binary-encoded by default (codec.go), with the
// gob framing of the previous release available via SetCodec(CodecGob);
// the kernel layers register their wire structs (gob and binary) in their
// init functions.
//
// Reliability division of labor: udptrans already provides retransmission
// with capped backoff, duplicate coalescing, and reply caching — the same
// Packet protocol the simulation binding implements — so this adapter only
// translates between kernel types and bytes, bridges handlers into node
// context, and keeps requests alive across udptrans retry-budget
// exhaustion (the kernel contract is "retransmitted until answered",
// matching the simulated Packet's unbounded persistence).
type Transport struct {
	node  *Node
	ep    *udptrans.Endpoint
	mux   *EventMux
	lane  uint16
	codec Codec

	// lanePrefix is uvarint(lane), prepended to every outgoing event so
	// the receiving EventMux can route it (mux.go).
	lanePrefix []byte

	peers []*net.UDPAddr                   // indexed by NodeID
	ids   map[netip.AddrPort]kernel.NodeID // reverse: udptrans.AddrKey of a source → id
	raw   []func(from kernel.NodeID, payload any) bool

	svcs []uint16 // wire service ids registered on ep, for Detach

	outstanding int // guarded by node.mu
	inflight    sync.WaitGroup
}

// NewTransport wraps ep as node's kernel.Transport on lane 0, creating
// the endpoint's EventMux — the single-run form, where the endpoint
// lives exactly as long as the transport. Peers must be installed with
// SetPeers before traffic flows.
func NewTransport(node *Node, ep *udptrans.Endpoint) *Transport {
	return NewTransportOn(NewEventMux(ep), node, 0)
}

// NewTransportOn wraps the mux's endpoint as node's kernel.Transport on
// the given lane — the run-many form: the mux (and its endpoint) outlive
// the transport, which registers its services under lane-offset wire ids
// and tears them back down in Detach. Peers must be installed with
// SetPeers before traffic flows.
func NewTransportOn(mux *EventMux, node *Node, lane uint16) *Transport {
	if lane >= MaxLanes {
		panic(fmt.Sprintf("rtnode: lane %d out of range (max %d)", lane, MaxLanes-1))
	}
	tr := &Transport{
		node:       node,
		ep:         mux.Endpoint(),
		mux:        mux,
		lane:       lane,
		lanePrefix: binary.AppendUvarint(nil, uint64(lane)),
		ids:        make(map[netip.AddrPort]kernel.NodeID),
	}
	mux.attach(lane, tr)
	return tr
}

// traceRetransmit surfaces a transport retransmission in the node's
// trace. Now() and the trace sink are goroutine-safe, so this may run on
// any caller goroutine (it is invoked from the endpoint's retry timer
// via the mux).
func (tr *Transport) traceRetransmit(svc uint16, attempt int) {
	n := tr.node
	n.Obs().Trace(int64(n.Now()), "net", "retransmit",
		obs.Arg{Key: "svc", Val: int64(svc)}, obs.Arg{Key: "attempt", Val: int64(attempt)})
}

// traceEventDrop surfaces a dropped one-way datagram: an event shed by a
// full worker queue (a barrier release, typically) delays whoever waited
// on it by a retransmission round-trip; make that visible in the trace
// instead of silent.
func (tr *Transport) traceEventDrop() {
	n := tr.node
	n.Obs().Trace(int64(n.Now()), "net", "event_dropped")
}

// SetCodec selects the wire codec. Must be called before traffic flows
// (like SetPeers), and with the same value on every node in the cluster.
func (tr *Transport) SetCodec(c Codec) { tr.codec = c }

// SetPeers installs the cluster address table: peers[i] is node i's
// endpoint address (including this node's own).
func (tr *Transport) SetPeers(peers []*net.UDPAddr) {
	tr.peers = peers
	for i, p := range peers {
		tr.ids[udptrans.AddrKey(p)] = kernel.NodeID(i)
	}
}

// Endpoint returns the underlying UDP endpoint (stats, address).
func (tr *Transport) Endpoint() *udptrans.Endpoint { return tr.ep }

// Close shuts the transport down: the endpoint closes (failing pending
// calls), and every async request goroutine drains. The single-run form
// of teardown — a run-many endpoint uses Detach instead and closes the
// endpoint only once, at daemon shutdown.
func (tr *Transport) Close() error {
	err := tr.ep.Close()
	tr.inflight.Wait()
	return err
}

// Detach tears this transport off its endpoint without closing the
// socket: the lane detaches from the mux (late events for it are
// dropped — they are unreliable by contract), the lane's services
// unregister, and async request goroutines drain. The caller must have
// reached quiescence first — every thread past its final synchronization
// point and Outstanding()==0 — because an unregistered service silently
// ignores requests, so a peer still retrying against it would spin
// forever. Must be called outside node context.
func (tr *Transport) Detach() {
	tr.mux.detach(tr.lane)
	for _, id := range tr.svcs {
		tr.ep.Unregister(id)
	}
	tr.inflight.Wait()
}

// wireSvc maps a lane-relative kernel service id to its wire service id.
func (tr *Transport) wireSvc(id kernel.ServiceID) uint16 {
	if id < 0 || int(id) >= LaneStride {
		panic(fmt.Sprintf("rtnode: kernel service id %d outside lane stride %d", id, LaneStride))
	}
	return uint16(id) + tr.lane*LaneStride
}

// idOf maps a datagram's source to the peer's node id. Keys are
// normalized, so a peer installed from a resolved 16-byte IPv4 address
// matches the 4-byte source the endpoint reports.
//
//dflint:hotpath
func (tr *Transport) idOf(addr *net.UDPAddr) (kernel.NodeID, bool) {
	id, ok := tr.ids[udptrans.AddrKey(addr)]
	return id, ok
}

// encodePayload turns a kernel-layer payload into bytes under the legacy
// gob framing. nil encodes as an empty payload (steal probes and ack-only
// replies are nil).
func encodePayload(v any) []byte {
	if v == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		panic(fmt.Sprintf("rtnode: encode %T: %v", v, err))
	}
	return buf.Bytes()
}

// decodePayload inverts encodePayload.
func decodePayload(b []byte) any {
	if len(b) == 0 {
		return nil
	}
	var v any
	//dflint:allow hotalloc the -codec=gob fallback decodes by reflection; the default binary codec does not reach here
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		panic(fmt.Sprintf("rtnode: decode: %v", err))
	}
	return v
}

// payloadPool recycles encode buffers on the request/event send path. The
// pool warms up to the largest payload the run ships (a DSM block), after
// which sends stop allocating.
var payloadPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// marshal encodes v under the transport's codec. In binary mode the bytes
// live in a pooled buffer, returned as bp, which the caller hands to
// putPayload once the bytes are no longer referenced (the udptrans send
// paths copy payloads into frames synchronously, so that follows the send
// call). bp is nil in gob mode and for a nil payload.
func (tr *Transport) marshal(v any) (data []byte, bp *[]byte) {
	if tr.codec == CodecGob {
		return encodePayload(v), nil
	}
	if v == nil {
		return nil, nil
	}
	bp = payloadPool.Get().(*[]byte)
	*bp = AppendPayload((*bp)[:0], v)
	return *bp, bp
}

// putPayload recycles an encode buffer from marshal or marshalEvent.
func putPayload(bp *[]byte) {
	if bp != nil {
		*bp = (*bp)[:0]
		payloadPool.Put(bp)
	}
}

// marshalOwned encodes v into a buffer the receiver may retain (service
// replies outlive the handler inside udptrans — they are copied into the
// reply frame and the reply cache after the handler returns).
func (tr *Transport) marshalOwned(v any) []byte {
	if tr.codec == CodecGob {
		return encodePayload(v)
	}
	return AppendPayload(nil, v)
}

// unmarshal decodes a payload under the transport's codec. In binary mode
// the decoded value may alias b — the kernel contract that receivers copy
// data they retain makes that safe while b's buffer lives.
func (tr *Transport) unmarshal(b []byte) any {
	if tr.codec == CodecGob {
		return decodePayload(b)
	}
	return UnmarshalPayload(b)
}

// Register installs a kernel service on the UDP endpoint. The wrapped
// handler decodes the payload, enters node context, charges receive and
// send costs to the ledger, and maps kernel.Drop to a udptrans drop (the
// requester's retransmission recovers, as in the paper).
func (tr *Transport) Register(id kernel.ServiceID, s kernel.Service) {
	n := tr.node
	wid := tr.wireSvc(id)
	tr.svcs = append(tr.svcs, wid)
	tr.ep.Register(wid, udptrans.Service{
		Idempotent: s.Idempotent,
		Handler: func(from *net.UDPAddr, req []byte) ([]byte, bool) {
			src, known := tr.idOf(from)
			if !known {
				return nil, true // stray datagram from outside the cluster
			}
			// The decoded payload may alias req's receive buffer; the
			// buffer stays alive until this handler returns, and the
			// handler runs to completion under the node monitor.
			payload := tr.unmarshal(req)
			n.mu.Lock()
			defer n.mu.Unlock()
			if n.closed {
				return nil, true
			}
			n.acct[s.Category] += n.model.RecvCost(len(req))
			reply, size, v := s.Handler(src, payload)
			if v == kernel.Drop {
				return nil, true
			}
			n.acct[s.Category] += n.model.SendCost(size)
			return tr.marshalOwned(reply), false
		},
	})
}

// call runs one reliable request to completion. The endpoint must carry an
// effectively unbounded retry budget (the bindings configure one): the
// kernel contract is "retransmitted until answered", and the
// retransmissions must reuse the request's sequence number so the
// receiver's reply cache absorbs duplicates. Re-issuing a timed-out call
// as a fresh request would re-execute non-idempotent handlers — a steal
// grant whose reply datagram was dropped would dequeue a second filament
// and strand the first. ok is false on endpoint close or cancellation.
func (tr *Transport) call(ctx context.Context, dst *net.UDPAddr, svc uint16, data []byte) ([]byte, bool) {
	reply, err := tr.ep.CallContext(ctx, dst, svc, data)
	if err != nil {
		return nil, false
	}
	return reply, true
}

// Call issues a blocking request from thread t. The node monitor is
// released while the call is in flight — the calling thread is blocked,
// exactly as in the simulation, and other threads and handlers run.
func (tr *Transport) Call(t kernel.Thread, dst kernel.NodeID, svc kernel.ServiceID, req any, size int, cat kernel.Category) any {
	n := tr.node
	n.acct[cat] += n.model.SendCost(size)
	tr.outstanding++
	data, bp := tr.marshal(req)
	addr := tr.peers[dst]
	wid := tr.wireSvc(svc)
	n.mu.Unlock()
	reply, ok := tr.call(context.Background(), addr, wid, data)
	putPayload(bp)
	n.mu.Lock()
	tr.outstanding--
	if !ok {
		return nil // endpoint closed mid-run (shutdown)
	}
	n.acct[cat] += n.model.RecvCost(len(reply))
	// CallContext returned an owned copy of the reply, so the decoded
	// value (which may alias it) is safe for the calling thread to keep.
	return tr.unmarshal(reply)
}

// handle tracks one asynchronous request: the endpoint call it waits on
// and the callback its reply completes. done is guarded by the node
// monitor; Complete/Cancel/Done must be called in node context.
type handle struct {
	tr   *Transport
	id   udptrans.CallID
	cat  kernel.Category
	cb   func(any)
	done bool
}

func (h *handle) Complete(reply any) {
	if h.done {
		return
	}
	h.done = true
	h.tr.ep.Cancel(h.id)
	h.cb(reply)
}

// Cancel stops the call's retransmission at once: the endpoint ends the
// call, and its await goroutine wakes and exits without the callback.
func (h *handle) Cancel() {
	if h.done {
		return
	}
	h.done = true
	h.tr.ep.Cancel(h.id)
}

func (h *handle) Done() bool { return h.done }

// RequestAsync issues a reliable request serviced by a dedicated
// goroutine; the callback runs in node context when the reply arrives.
// The call is begun here, in node context, so a Cancel issued before the
// goroutine runs still finds it.
func (tr *Transport) RequestAsync(dst kernel.NodeID, svc kernel.ServiceID, req any, size int, cat kernel.Category, cb func(reply any)) kernel.Handle {
	n := tr.node
	n.acct[cat] += n.model.SendCost(size)
	data, bp := tr.marshal(req)
	id, err := tr.ep.Start(tr.peers[dst], tr.wireSvc(svc), data)
	putPayload(bp) // Start framed a copy
	h := &handle{tr: tr, id: id, cat: cat, cb: cb}
	if err != nil {
		h.done = true // endpoint closed mid-run: the request never completes
		return h
	}
	tr.outstanding++
	tr.inflight.Add(1)
	go h.await()
	return h
}

// await waits for h's reply and runs the callback in node context. The
// buffered call avoids copying the reply (a page, on the DSM path): the
// decoded payload aliases the pooled receive buffer, which is released
// only after the callback — run to completion under the node monitor —
// returns. Callbacks that retain payload bytes copy them (the kernel
// contract; DSM install does).
func (h *handle) await() {
	tr := h.tr
	defer tr.inflight.Done()
	reply, buf, err := tr.ep.Await(context.Background(), h.id)
	n := tr.node
	n.mu.Lock()
	tr.outstanding--
	// A done handle was completed out of band or canceled; an error means
	// the endpoint closed mid-run.
	if !h.done {
		h.done = true
		if err == nil {
			n.acct[h.cat] += n.model.RecvCost(len(reply))
			h.cb(tr.unmarshal(reply))
		}
	}
	n.mu.Unlock()
	udptrans.Release(buf)
}

// RequestSized is RequestAsync; the expected reply size only stretches
// timeouts in the simulation (real retransmission keeps retrying anyway).
func (tr *Transport) RequestSized(dst kernel.NodeID, svc kernel.ServiceID, req any, size, expectedReply int, cat kernel.Category, cb func(reply any)) kernel.Handle {
	return tr.RequestAsync(dst, svc, req, size, cat, cb)
}

// marshalEvent encodes an event payload behind the lane prefix, so the
// receiving mux can route it. Unlike marshal, a nil payload still yields
// bytes (the bare prefix — the remainder decodes back to nil). The buffer
// contract matches marshal: bp is nil in gob mode, pooled otherwise.
func (tr *Transport) marshalEvent(v any) (data []byte, bp *[]byte) {
	if tr.codec == CodecGob {
		body := encodePayload(v)
		buf := make([]byte, 0, len(tr.lanePrefix)+len(body))
		return append(append(buf, tr.lanePrefix...), body...), nil
	}
	bp = payloadPool.Get().(*[]byte)
	*bp = AppendPayload(append((*bp)[:0], tr.lanePrefix...), v)
	return *bp, bp
}

// Send transmits an unreliable one-way datagram; Broadcast fans out to
// every peer but this node. Loss is tolerated by the protocols above
// (e.g. a lost barrier release is recovered by arrive retransmission).
func (tr *Transport) Send(dst kernel.NodeID, payload any, size int, cat kernel.Category) {
	n := tr.node
	n.acct[cat] += n.model.SendCost(size)
	data, bp := tr.marshalEvent(payload)
	// SendEvent copies the payload into its frame (or batch) before
	// returning, so the pooled encode buffer can be released right after.
	if dst == kernel.Broadcast {
		for i, p := range tr.peers {
			if kernel.NodeID(i) == n.id {
				continue
			}
			tr.ep.SendEvent(p, data) //nolint:errcheck // unreliable by contract
		}
	} else {
		tr.ep.SendEvent(tr.peers[dst], data) //nolint:errcheck // unreliable by contract
	}
	putPayload(bp)
}

// HandleRaw appends a one-way datagram handler. Registration happens
// during setup, before traffic flows.
func (tr *Transport) HandleRaw(h func(from kernel.NodeID, payload any) bool) {
	tr.raw = append(tr.raw, h)
}

// handleEvent delivers a one-way datagram through the raw handler chain in
// node context. It runs on the endpoint's worker pool.
//
//dflint:hotpath
func (tr *Transport) handleEvent(from *net.UDPAddr, b []byte) {
	src, known := tr.idOf(from)
	if !known {
		return
	}
	// The decoded payload may alias b's pooled receive buffer, which the
	// endpoint keeps alive until this handler returns; the raw chain runs
	// to completion inside it.
	payload := tr.unmarshal(b)
	n := tr.node
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	for _, h := range tr.raw {
		if h(src, payload) {
			return
		}
	}
}

// Outstanding returns the number of requests in flight. Must be called in
// node context.
func (tr *Transport) Outstanding() int { return tr.outstanding }
