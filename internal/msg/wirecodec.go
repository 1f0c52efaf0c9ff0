package msg

import "filaments/internal/rtnode"

// Binary wire codec for the CG envelope (tag 40; see the tag map in
// rtnode/codec.go). Data is an interface, so the envelope recurses
// through EncodeAny/DecodeAny: a registered payload type ([][]float64,
// the CG matrix shape) nests its binary form. The CG programs also send
// payloads with no codec ([]float64, float64, NodeID); they run only on
// the simulation binding, which passes payloads by reference.
func init() {
	rtnode.RegisterWireCodec(wire{}, 40,
		func(e *rtnode.Enc, v any) {
			w := v.(wire)
			e.Varint(int64(w.Tag))
			e.Varint(int64(w.Size))
			rtnode.EncodeAny(e, w.Data)
		},
		func(d *rtnode.Dec) any {
			var w wire
			w.Tag = Tag(d.Varint())
			w.Size = int(d.Varint())
			w.Data = rtnode.DecodeAny(d)
			return w
		})
}
