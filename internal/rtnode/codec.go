package rtnode

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// The binary wire codec.
//
// The real-time transport originally gob-encoded every payload as an
// interface value. Gob is self-describing and safe, but it costs dozens
// of allocations and a reflection walk per message — on the page-transfer
// hot path that software overhead is exactly what the paper says kills
// fine-grain parallelism on a cluster. This file replaces it with a
// hand-rolled binary codec: each wire struct registers an explicit
// encoder/decoder under a small numeric tag (RegisterWireCodec, next to
// the gob registration the dflint gobreg analyzer already enforces), and
// the encode path appends into caller-provided buffers so a page message
// round-trips with zero codec allocations.
//
// Frame format of one payload (CodecBinary mode):
//
//	empty            — nil payload (steal probes, ack-only replies)
//	uvarint tag, body — tagged value
//
// Tag 1 is the gob escape hatch: a type registered with RegisterWire but
// without a binary codec still crosses the wire as a length-prefixed gob
// blob, so the codec migration never silently strands a payload type.
// Tag 0 is nil (needed for nested nil values, e.g. msg envelopes). Tags
// 8–15 are reserved for builtin shapes registered by this package
// ([][]float64); kernel packages use 16 and up.
//
// CodecGob mode keeps the previous release's framing bit for bit (a raw
// gob stream, no tag), selected with `-codec=gob` on the CLIs. The codec
// is a cluster-wide setting: every node must agree, like the protocol.
//
// Decoded values may alias the input buffer ([]byte fields are not
// copied). The transport owns the buffer until the handler or callback
// returns, which matches the kernel contract that receivers copy data
// they retain — the simulation binding passes payloads by reference and
// has always imposed the same rule.

// Builtin tags (8–15) and the reserved structural tags.
const (
	tagNil     = 0
	tagGob     = 1
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
// identically: the wire contract (pinned by the rtnode fuzz test since
// the gob era) is that nil-versus-empty carries no protocol meaning.
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
	if d.Bad || n < 0 || d.Off+n > len(d.B) {
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

// The codec registry. Like the gob registry above it, registration
// happens from package inits (and test setup) before any traffic flows,
// so lookups run unlocked on the hot path.
var (
	codecMu     sync.Mutex
	codecByType = make(map[reflect.Type]wireCodec)
	codecByTag  = make(map[uint16]wireCodec)
)

// RegisterWireCodec installs the binary encoder/decoder for proto's
// concrete type under tag. Tags must be unique (16 and up for kernel
// packages, TagTestBase and up for tests; 8–15 are this package's
// builtins). enc receives a value of proto's exact type; dec must return
// one. A type without a registered codec still crosses the wire via the
// gob escape hatch, so registration is an optimization, not a liveness
// requirement — but the hot-path types (pages, forks, barriers) all have
// one.
func RegisterWireCodec(proto any, tag uint16, enc func(*Enc, any), dec func(*Dec) any) {
	if proto == nil {
		panic("rtnode.RegisterWireCodec: nil prototype")
	}
	if tag == tagNil || tag == tagGob {
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

// EncodeAny appends v's tagged encoding to e: nil, a registered binary
// codec, or the length-prefixed gob escape hatch. It is the recursion
// point for envelope codecs whose payload is an interface (msg's wire
// struct).
func EncodeAny(e *Enc, v any) {
	if v == nil {
		e.Uvarint(tagNil)
		return
	}
	if c, ok := codecByType[reflect.TypeOf(v)]; ok {
		e.Uvarint(uint64(c.tag))
		c.enc(e, v)
		return
	}
	e.Uvarint(tagGob)
	encodeGob(e, v)
}

// encodeGob appends v's gob blob. It stays out of EncodeAny because gob
// takes v's address, which would move EncodeAny's parameter to the heap
// on every call, binary encodes included.
func encodeGob(e *Enc, v any) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		panic(fmt.Sprintf("rtnode: encode %T: %v", v, err))
	}
	e.Bytes(buf.Bytes())
}

// DecodeAny inverts EncodeAny.
func DecodeAny(d *Dec) any {
	tag := d.Uvarint()
	if d.Bad {
		return nil
	}
	switch tag {
	case tagNil:
		return nil
	case tagGob:
		blob := d.Bytes()
		if d.Bad {
			return nil
		}
		var v any
		//dflint:allow hotalloc the tag-1 escape hatch serves only types without a binary codec, none of them on the message path
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&v); err != nil {
			panic(fmt.Sprintf("rtnode: decode gob payload: %v", err))
		}
		return v
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
// malformed input for the same reason the gob path always has: payloads
// only arrive from validated cluster peers, so corruption is a bug, not
// an input.
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

// The [][]float64 builtin: the matrix shape every CG program and
// fork/join result ships. Registered here because three app packages
// declare it in RegisterWire and a codec must be registered exactly once.
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
				if d.Bad || m*8 > uint64(len(d.B)-d.Off) {
					d.fail()
					return [][]float64(nil)
				}
				if m == 0 {
					continue // zero-length rows decode as nil, like gob
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
