package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"filaments/internal/rtnode"
)

// FuzzMembershipRoundTrip frames every membership payload (wire tags
// 48–53) under the binary codec, exactly as the transport sends it, and
// asserts each decodes to the original value, the same discipline as
// dsm's FuzzLRCFlushRoundTrip. The membership messages
// are the cluster's front door, so their wire behavior is pinned per
// message rather than trusted to the shared registry.
func FuzzMembershipRoundTrip(f *testing.F) {
	f.Add("", uint64(0), int64(0), false)
	f.Add("127.0.0.1:9000", uint64(1), int64(50_000_000), true)
	f.Add("host-with-a-fairly-long-name.example.com:65535", uint64(1)<<63, int64(-1), false)
	f.Add(string(bytes.Repeat([]byte{0xff}, 300)), uint64(300), int64(1)<<40, true)
	f.Fuzz(func(t *testing.T, addr string, gen uint64, after int64, known bool) {
		msgs := []any{
			JoinMsg{Addr: addr},
			JoinAck{Gen: gen, SuspectAfter: after},
			BeatMsg{Addr: addr},
			BeatAck{Gen: gen, Known: known},
			LeaveMsg{Addr: addr},
			LeaveAck{Gen: gen},
		}
		for _, in := range msgs {
			got := rtnode.UnmarshalPayload(rtnode.MarshalPayload(in))
			if !reflect.DeepEqual(got, in) {
				t.Fatalf("round trip changed value:\n sent %#v\n got  %#v", in, got)
			}
		}
	})
}

// FuzzMembershipDecode feeds raw bytes into the defensive decode path
// the coordinator uses for unauthenticated datagrams: DecodeWire must
// reject or accept without panicking, and anything it accepts must
// re-encode and re-decode to the same value.
func FuzzMembershipDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{48})
	f.Add([]byte{49, 0x00})
	f.Add([]byte{51, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(rtnode.MarshalPayload(JoinMsg{Addr: "n1:9000"}))
	f.Add(rtnode.MarshalPayload(JoinAck{Gen: 7, SuspectAfter: 1 << 30}))
	f.Add(rtnode.MarshalPayload(BeatAck{Gen: 9, Known: true}))
	f.Add(rtnode.MarshalPayload(LeaveAck{Gen: 3}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		v, ok := DecodeWire(raw)
		if !ok || v == nil {
			return
		}
		switch v.(type) {
		case JoinMsg, JoinAck, BeatMsg, BeatAck, LeaveMsg, LeaveAck:
		default:
			return // some other registered payload's tag: not ours to pin
		}
		again, ok := DecodeWire(rtnode.MarshalPayload(v))
		if !ok {
			t.Fatalf("re-encoding an accepted payload produced a rejected buffer: %#v", v)
		}
		if !reflect.DeepEqual(again, v) {
			t.Fatalf("decode/encode/decode not idempotent:\n first  %#v\n second %#v", v, again)
		}
	})
}
