// Package tagspace exercises the wire-tag namespace rule: no duplicate
// production tags, and every module struct payload handed to a
// Transport or a msg endpoint, or returned as a handler reply, must
// reach a registered binary codec.
package tagspace

import (
	"kernel"
	"msg"
	"rtnode"
)

type pingMsg struct{ N int64 }

type pongMsg struct{ N int64 }

type strayMsg struct{ S string }

type scratchMsg struct{ B []byte }

const (
	tagPing    = 70
	tagPong    = 71
	tagScratch = 0x7F00
)

func register() {
	rtnode.RegisterWireCodec(pingMsg{}, tagPing, encPing, decPing)
	rtnode.RegisterWireCodec(pongMsg{}, tagPing, encPong, decPong) // want "wire tag 70 is already registered for tagspace\.pingMsg"
	rtnode.RegisterWireCodec(pongMsg{}, tagPong, encPong, decPong)
	// At or above the test base tags are per-test scratch space: two
	// tests may claim the same number.
	rtnode.RegisterWireCodec(scratchMsg{}, tagScratch, encScratch, decScratch)
	rtnode.RegisterWireCodec(pingMsg{}, tagScratch, encPing, decPing)
}

func encPing(e *rtnode.Enc, v any) { e.Varint(v.(pingMsg).N) }
func decPing(d *rtnode.Dec) any    { return pingMsg{N: d.Varint()} }

func encPong(e *rtnode.Enc, v any) { e.Varint(v.(pongMsg).N) }
func decPong(d *rtnode.Dec) any    { return pongMsg{N: d.Varint()} }

func encScratch(e *rtnode.Enc, v any) { e.Bytes(v.(scratchMsg).B) }
func decScratch(d *rtnode.Dec) any    { return scratchMsg{B: d.Bytes()} }

func send(t kernel.Thread, tr kernel.Transport, dst kernel.NodeID) {
	tr.Send(dst, pingMsg{N: 1}, 8, 0)
	tr.Send(dst, strayMsg{S: "x"}, 8, 0)       // want "payload type tagspace\.strayMsg reaches the wire with no registered binary codec"
	tr.Call(t, dst, 1, strayMsg{S: "y"}, 8, 0) // want "payload type tagspace\.strayMsg reaches the wire with no registered binary codec"
	tr.RequestAsync(dst, 1, pongMsg{N: 2}, 8, 0, nil)
	// Non-struct and non-module payloads are outside the rule.
	tr.Send(dst, []byte("raw"), 3, 0)
	tr.Send(dst, 7, 1, 0)
}

func cgSend(m *msg.Endpoint, dst kernel.NodeID) {
	m.Send(dst, 1, pingMsg{N: 3}, 8)
	m.Send(dst, 1, strayMsg{S: "z"}, 8) // want "payload type tagspace\.strayMsg reaches the wire with no registered binary codec"
	m.Broadcast(1, strayMsg{S: "w"}, 8) // want "payload type tagspace\.strayMsg reaches the wire with no registered binary codec"
	m.Send(dst, 1, []float64{1}, 8)
}

func handler(from kernel.NodeID, req any) (any, int, kernel.Verdict) {
	if from == 0 {
		return strayMsg{}, 0, kernel.Reply // want "handler reply type tagspace\.strayMsg reaches the wire with no registered binary codec"
	}
	if from == 1 {
		return nil, 0, kernel.Drop
	}
	return pongMsg{N: 1}, 8, kernel.Reply
}

func registerService(tr kernel.Transport) {
	tr.Register(1, kernel.Service{Handler: func(from kernel.NodeID, req any) (any, int, kernel.Verdict) {
		return strayMsg{}, 0, kernel.Reply // want "handler reply type tagspace\.strayMsg reaches the wire with no registered binary codec"
	}})
}
