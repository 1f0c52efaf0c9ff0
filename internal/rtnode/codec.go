package rtnode

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// The binary wire codec.
//
// Every payload the real-time transport sends crosses the wire in this
// codec. Each wire struct registers an explicit encoder/decoder under a
// small numeric tag (RegisterWireCodec, from an init in the package that
// sends it; dflint's tagspace analyzer checks that every send and reply
// site has one), and the encode path appends into caller-provided
// buffers, so a page message round-trips with zero codec allocations:
// per-message software cost is exactly what the paper says kills
// fine-grain parallelism on a cluster.
//
// Frame format of one payload:
//
//	empty            — nil payload (steal probes, ack-only replies)
//	uvarint tag, body — tagged value
//
// Tag 0 is nil (needed for nested nil values, e.g. msg envelopes). Tag 1
// is retired: it once carried gob blobs, and a peer that still sends one
// must fail to decode rather than be misread. Tags 8–15 are reserved for
// builtin shapes registered by this package ([][]float64); kernel
// packages use 16 and up. Encoding a type with no registered codec
// panics and names the type.
//
// Decoded values may alias the input buffer ([]byte fields are not
// copied). The transport owns the buffer until the handler or callback
// returns, which matches the kernel contract that receivers copy data
// they retain — the simulation binding passes payloads by reference and
// has always imposed the same rule.

// Builtin tags (8–15) and the reserved structural tags.
const (
	tagNil     = 0
	tagRetired = 1
	tagF64Grid = 8 // [][]float64, the shape every CG program ships
	// TagTestBase and up are reserved for test-only registrations, so
	// fixture codecs can never collide with kernel tags.
	TagTestBase = 0x7F00
)

// Enc is an append-only encoder. B is the destination buffer; methods
// append and never allocate while capacity lasts, so callers that reuse
// buffers encode with zero allocations.
type Enc struct {
	B []byte
}

// Uvarint appends u in unsigned varint encoding.
//
//dflint:hotpath
func (e *Enc) Uvarint(u uint64) {
	e.B = binary.AppendUvarint(e.B, u)
}

// Varint appends i in zig-zag varint encoding.
//
//dflint:hotpath
func (e *Enc) Varint(i int64) {
	e.B = binary.AppendVarint(e.B, i)
}

// F64 appends f as 8 fixed little-endian bytes.
//
//dflint:hotpath
func (e *Enc) F64(f float64) {
	e.B = binary.LittleEndian.AppendUint64(e.B, math.Float64bits(f))
}

// Bool appends b as one byte.
//
//dflint:hotpath
func (e *Enc) Bool(b bool) {
	if b {
		e.B = append(e.B, 1)
	} else {
		e.B = append(e.B, 0)
	}
}

// Bytes appends a length-prefixed byte slice. nil and empty encode
// identically: the wire contract (pinned by the rtnode fuzz test) is
// that nil-versus-empty carries no protocol meaning.
//
//dflint:hotpath
func (e *Enc) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.B = append(e.B, b...)
}

// String appends a length-prefixed string.
//
//dflint:hotpath
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.B = append(e.B, s...)
}

// Dec decodes a buffer produced by Enc. Malformed input sets Bad and
// makes every subsequent read return zero values, so codecs can decode
// straight-line and check once at the end.
type Dec struct {
	B   []byte
	Off int
	Bad bool
}

func (d *Dec) fail() {
	d.Bad = true
}

// Fail marks the decode as malformed (codecs use it for their own
// structural validation, e.g. rejecting bogus element counts).
func (d *Dec) Fail() { d.fail() }

// Remaining reports how many bytes are left to decode.
func (d *Dec) Remaining() int { return len(d.B) - d.Off }

// Uvarint reads an unsigned varint.
//
//dflint:hotpath
func (d *Dec) Uvarint() uint64 {
	if d.Bad {
		return 0
	}
	u, n := binary.Uvarint(d.B[d.Off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.Off += n
	return u
}

// Varint reads a zig-zag varint.
//
//dflint:hotpath
func (d *Dec) Varint() int64 {
	if d.Bad {
		return 0
	}
	i, n := binary.Varint(d.B[d.Off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.Off += n
	return i
}

// F64 reads 8 fixed little-endian bytes as a float64.
//
//dflint:hotpath
func (d *Dec) F64() float64 {
	if d.Bad || d.Off+8 > len(d.B) {
		d.fail()
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.B[d.Off:]))
	d.Off += 8
	return f
}

// Bool reads one byte as a bool.
//
//dflint:hotpath
func (d *Dec) Bool() bool {
	if d.Bad || d.Off >= len(d.B) {
		d.fail()
		return false
	}
	b := d.B[d.Off]
	d.Off++
	return b != 0
}

// Bytes reads a length-prefixed byte slice. The result ALIASES the input
// buffer — valid only while the buffer is; receivers that retain the
// bytes must copy (the DSM install path does).
//
//dflint:hotpath
func (d *Dec) Bytes() []byte {
	n := int(d.Uvarint())
	if d.Bad || n < 0 || n > len(d.B)-d.Off {
		d.fail()
		return nil
	}
	b := d.B[d.Off : d.Off+n : d.Off+n]
	d.Off += n
	if n == 0 {
		return nil
	}
	return b
}

// String reads a length-prefixed string (copies, as strings must).
func (d *Dec) String() string {
	return string(d.Bytes())
}

// wireCodec couples a tag with its encode/decode functions.
type wireCodec struct {
	tag uint16
	enc func(*Enc, any)
	dec func(*Dec) any
}

// The codec registry. Registration happens from package inits (and test
// setup) before any traffic flows, so lookups run unlocked on the hot
// path.
var (
	codecMu     sync.Mutex
	codecByType = make(map[reflect.Type]wireCodec)
	codecByTag  = make(map[uint16]wireCodec)
)

// RegisterWireCodec installs the binary encoder/decoder for proto's
// concrete type under tag. Tags must be unique (16 and up for kernel
// packages, TagTestBase and up for tests; 8–15 are this package's
// builtins). enc receives a value of proto's exact type; dec must return
// one.
func RegisterWireCodec(proto any, tag uint16, enc func(*Enc, any), dec func(*Dec) any) {
	if proto == nil {
		panic("rtnode.RegisterWireCodec: nil prototype")
	}
	if tag == tagNil || tag == tagRetired {
		panic(fmt.Sprintf("rtnode.RegisterWireCodec: tag %d is reserved", tag))
	}
	t := reflect.TypeOf(proto)
	codecMu.Lock()
	defer codecMu.Unlock()
	if prev, dup := codecByType[t]; dup {
		panic(fmt.Sprintf("rtnode.RegisterWireCodec: %v already registered (tag %d)", t, prev.tag))
	}
	if prev, dup := codecByTag[tag]; dup {
		panic(fmt.Sprintf("rtnode.RegisterWireCodec: tag %d already used by %v", tag, prev))
	}
	c := wireCodec{tag: tag, enc: enc, dec: dec}
	codecByType[t] = c
	codecByTag[tag] = c
}

// EncodeAny appends v's tagged encoding to e: nil or a registered
// binary codec. A type with no codec is a programming error (tagspace
// reports its send sites statically) and panics, naming the type. It is
// the recursion point for envelope codecs whose payload is an interface
// (msg's wire struct).
func EncodeAny(e *Enc, v any) {
	if v == nil {
		e.Uvarint(tagNil)
		return
	}
	c, ok := codecByType[reflect.TypeOf(v)]
	if !ok {
		noCodec(reflect.TypeOf(v))
	}
	e.Uvarint(uint64(c.tag))
	c.enc(e, v)
}

// noCodec panics for an unregistered payload type. It takes the type,
// not the value, so EncodeAny's parameter stays off the heap.
func noCodec(t reflect.Type) {
	panic(fmt.Sprintf("rtnode: encode %v: no binary codec registered", t))
}

// DecodeAny inverts EncodeAny. An unknown tag, the retired tag 1
// included, marks the decode Bad.
func DecodeAny(d *Dec) any {
	tag := d.Uvarint()
	if d.Bad {
		return nil
	}
	if tag == tagNil {
		return nil
	}
	c, ok := codecByTag[uint16(tag)]
	if !ok {
		d.fail()
		return nil
	}
	return c.dec(d)
}

// AppendPayload appends the binary framing of a kernel payload to dst and
// returns the extended buffer. nil encodes as an empty payload, matching
// the transport convention that zero-length datagram bodies mean nil.
func AppendPayload(dst []byte, v any) []byte {
	if v == nil {
		return dst
	}
	e := encPool.Get().(*Enc)
	e.B = dst
	EncodeAny(e, v)
	out := e.B
	e.B = nil
	encPool.Put(e)
	return out
}

// encPool and decPool recycle the codec state of AppendPayload and
// UnmarshalPayload. The registered codecs are called through function
// values, so escape analysis cannot keep a local Enc or Dec on the stack,
// and every payload would allocate one.
var (
	encPool = sync.Pool{New: func() any { return new(Enc) }}
	decPool = sync.Pool{New: func() any { return new(Dec) }}
)

// UnmarshalPayload decodes a binary-framed payload. It panics on
// malformed input: payloads only arrive from validated cluster peers,
// so corruption is a bug, not an input.
func UnmarshalPayload(b []byte) any {
	if len(b) == 0 {
		return nil
	}
	d := decPool.Get().(*Dec)
	*d = Dec{B: b}
	v := DecodeAny(d)
	bad, off := d.Bad, d.Off
	*d = Dec{}
	decPool.Put(d)
	if bad {
		panic(fmt.Sprintf("rtnode: malformed binary payload (%d bytes, offset %d)", len(b), off))
	}
	return v
}

// MarshalPayload is AppendPayload into a fresh buffer (tests and
// diagnostics; the transport uses AppendPayload with pooled buffers).
func MarshalPayload(v any) []byte {
	return AppendPayload(nil, v)
}

// The [][]float64 builtin: the matrix shape the CG programs ship.
// Registered here because several app packages send it and a codec must
// be registered exactly once.
func init() {
	RegisterWireCodec([][]float64(nil), tagF64Grid,
		func(e *Enc, v any) {
			g := v.([][]float64)
			e.Uvarint(uint64(len(g)))
			for _, row := range g {
				e.Uvarint(uint64(len(row)))
				for _, f := range row {
					e.F64(f)
				}
			}
		},
		func(d *Dec) any {
			n := d.Uvarint()
			if d.Bad || n == 0 {
				return [][]float64(nil)
			}
			if n > uint64(len(d.B)) { // each row costs ≥1 byte; reject bogus lengths
				d.fail()
				return [][]float64(nil)
			}
			g := make([][]float64, n)
			for i := range g {
				m := d.Uvarint()
				if d.Bad || m > uint64(len(d.B)-d.Off)/8 {
					d.fail()
					return [][]float64(nil)
				}
				if m == 0 {
					continue // zero-length rows decode as nil
				}
				row := make([]float64, m)
				for j := range row {
					row[j] = d.F64()
				}
				g[i] = row
			}
			return g
		})
}
