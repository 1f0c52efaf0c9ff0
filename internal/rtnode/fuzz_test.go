package rtnode_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"filaments/internal/rtnode"
)

// fuzzPayload exercises the shapes kernel payloads actually use on the
// wire: a nested float64 matrix (page data, fork/join results), a raw
// byte slice, a string, and a scalar.
type fuzzPayload struct {
	Grid [][]float64
	Raw  []byte
	Name string
	N    int64
}

// fuzzNoCodec deliberately has no binary codec.
type fuzzNoCodec struct{ Label string }

func init() {
	rtnode.RegisterWireCodec(fuzzPayload{}, rtnode.TagTestBase,
		func(e *rtnode.Enc, v any) {
			p := v.(fuzzPayload)
			e.Uvarint(uint64(len(p.Grid)))
			for _, row := range p.Grid {
				e.Uvarint(uint64(len(row)))
				for _, f := range row {
					e.F64(f)
				}
			}
			e.Bytes(p.Raw)
			e.String(p.Name)
			e.Varint(p.N)
		},
		func(d *rtnode.Dec) any {
			var p fuzzPayload
			n := d.Uvarint()
			if n > uint64(d.Remaining()) {
				d.Fail()
				return p
			}
			if n > 0 {
				p.Grid = make([][]float64, n)
				for i := range p.Grid {
					m := d.Uvarint()
					if m > uint64(d.Remaining())/8 {
						d.Fail()
						return p
					}
					if m == 0 {
						continue
					}
					row := make([]float64, m)
					for j := range row {
						row[j] = d.F64()
					}
					p.Grid[i] = row
				}
			}
			p.Raw = d.Bytes()
			p.Name = d.String()
			p.N = d.Varint()
			return p
		})
}

// FuzzWireRoundTrip frames a payload under the binary codec, exactly as
// the real-time transport sends it, and asserts it decodes to the
// original value. The seeds cover the edge shapes that bite codecs
// (zero-length payloads, empty inner rows, negative and extreme scalars)
// and run on every plain `go test`, so CI exercises the corpus without a
// fuzzing engine.
//
// The codec does not distinguish empty slices from nil, so the
// comparison normalizes zero-length slices on both sides. Kernel code
// must therefore never give nil-versus-empty a protocol meaning — a
// contract this fuzz target pins down.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{}, "", int64(0))
	f.Add(uint8(3), uint8(4), []byte{1, 2, 3, 4, 5}, "jacobi", int64(-1))
	f.Add(uint8(1), uint8(0), []byte{0xff}, "zero-length rows", int64(1)<<62)
	f.Add(uint8(16), uint8(16), []byte("page"), "full page", int64(4096))
	f.Fuzz(func(t *testing.T, rows, cols uint8, raw []byte, name string, n int64) {
		grid := make([][]float64, int(rows%32))
		for i := range grid {
			row := make([]float64, int(cols%32))
			for j := range row {
				var b byte
				if len(raw) > 0 {
					b = raw[(i*len(row)+j)%len(raw)]
				}
				row[j] = float64(int(b)-128) / 3
			}
			grid[i] = row
		}
		in := fuzzPayload{Grid: grid, Raw: raw, Name: name, N: n}
		out := rtnode.UnmarshalPayload(rtnode.MarshalPayload(in))
		got, ok := out.(fuzzPayload)
		if !ok {
			t.Fatalf("round trip changed type: sent %T, got %T", in, out)
		}
		if !reflect.DeepEqual(normalize(got), normalize(in)) {
			t.Fatalf("round trip changed value:\n sent %#v\n got  %#v", in, got)
		}
	})
}

// TestNoCodecPayloadRejected pins the two ends of the single wire format:
// encoding a type with no registered codec panics and names the type,
// and a frame under the retired tag 1 fails to decode.
func TestNoCodecPayloadRejected(t *testing.T) {
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "fuzzNoCodec") {
				t.Errorf("MarshalPayload of a codec-less type: panic %q does not name the type", msg)
			}
		}()
		rtnode.MarshalPayload(fuzzNoCodec{Label: "x"})
	}()

	d := &rtnode.Dec{B: []byte{1, 3, 'a', 'b', 'c'}}
	if v := rtnode.DecodeAny(d); v != nil || !d.Bad {
		t.Errorf("tag-1 frame decoded to %#v (Bad=%v), want a failed decode", v, d.Bad)
	}
}

// TestDecodeHugeLengthsBad feeds length prefixes whose byte counts
// overflow int arithmetic: the decoder must mark the input Bad, not
// panic in a slice expression or make.
func TestDecodeHugeLengthsBad(t *testing.T) {
	// A [][]float64 frame (tag 8) with one row of 2^61+1 elements, then 8
	// bytes: 8*(2^61+1) wraps to 8 in uint64.
	grid := []byte{8, 1}
	grid = binary.AppendUvarint(grid, 1<<61+1)
	grid = append(grid, make([]byte, 8)...)
	d := &rtnode.Dec{B: grid}
	rtnode.DecodeAny(d)
	if !d.Bad {
		t.Error("grid row of 2^61+1 elements: decode not marked Bad")
	}

	// A byte string whose length is near MaxInt64: Off+n wraps negative.
	d = &rtnode.Dec{B: binary.AppendUvarint(nil, math.MaxInt64-1)}
	if b := d.Bytes(); b != nil || !d.Bad {
		t.Errorf("byte string of length MaxInt64-1: got %d bytes (Bad=%v), want Bad", len(b), d.Bad)
	}
}

// TestNilPayloadFraming pins the framing conventions around nil: a nil
// payload is zero bytes on the wire, and decodes back to nil.
func TestNilPayloadFraming(t *testing.T) {
	if b := rtnode.MarshalPayload(nil); len(b) != 0 {
		t.Fatalf("nil payload framed as %d bytes, want 0", len(b))
	}
	if v := rtnode.UnmarshalPayload(nil); v != nil {
		t.Fatalf("empty payload decoded to %#v, want nil", v)
	}
}

// normalize maps zero-length slices to nil at every level, since the
// codec erases that distinction.
func normalize(p fuzzPayload) fuzzPayload {
	if len(p.Raw) == 0 {
		p.Raw = nil
	}
	if len(p.Grid) == 0 {
		p.Grid = nil
	}
	for i, row := range p.Grid {
		if len(row) == 0 {
			p.Grid[i] = nil
		}
	}
	return p
}
