// Package rtnode is a hermetic stand-in for filaments/internal/rtnode's
// binary codec surface, for the codecsym and tagspace fixtures.
package rtnode

func RegisterWireCodec(proto any, tag uint16, enc func(*Enc, any), dec func(*Dec) any) {}

// Enc mirrors the real append-only encoder's method set.
type Enc struct{ B []byte }

func (e *Enc) Uvarint(u uint64) {}
func (e *Enc) Varint(i int64)   {}
func (e *Enc) F64(f float64)    {}
func (e *Enc) Bool(b bool)      {}
func (e *Enc) Bytes(b []byte)   {}
func (e *Enc) String(s string)  {}

// Dec mirrors the real decoder's method set.
type Dec struct {
	B   []byte
	Off int
	Bad bool
}

func (d *Dec) Uvarint() uint64 { return 0 }
func (d *Dec) Varint() int64   { return 0 }
func (d *Dec) F64() float64    { return 0 }
func (d *Dec) Bool() bool      { return false }
func (d *Dec) Bytes() []byte   { return nil }
func (d *Dec) String() string  { return "" }
func (d *Dec) Fail()           {}
func (d *Dec) Remaining() int  { return 0 }

func EncodeAny(e *Enc, v any) {}
func DecodeAny(d *Dec) any    { return nil }
