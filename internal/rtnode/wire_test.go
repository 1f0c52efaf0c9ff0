package rtnode_test

import (
	"reflect"
	"sort"
	"testing"

	"filaments/internal/rtnode"

	// Imported for their RegisterWireCodec inits: every package that puts
	// payloads on the wire registers its codecs, and this test
	// round-trips the lot.
	_ "filaments/internal/apps/quadrature"
	_ "filaments/internal/cluster"
	_ "filaments/internal/dsm"
	_ "filaments/internal/filament"
	_ "filaments/internal/msg"
	_ "filaments/internal/reduce"
)

// TestWireTypesRoundTrip walks the binary codec registry: a filled value
// of every production wire type goes through MarshalPayload and
// UnmarshalPayload — exactly how the real-time transport frames payloads
// — and must come back with its type and every field intact. A codec
// that drops, reorders, or truncates a field fails here instead of on
// the first UDP message.
func TestWireTypesRoundTrip(t *testing.T) {
	var types []reflect.Type
	for typ, tag := range rtnode.CodecTypes() {
		if tag < rtnode.TagTestBase {
			types = append(types, typ)
		}
	}
	sort.Slice(types, func(i, j int) bool { return types[i].String() < types[j].String() })
	// One type per WIRE.lock row: the DSM's five messages, fork/join's
	// four, the reducer's two, msg's envelope, quadrature's work unit,
	// membership's six, and the [][]float64 builtin.
	if len(types) < 20 {
		t.Fatalf("only %d production wire types registered: %v", len(types), types)
	}
	for _, typ := range types {
		v := reflect.New(typ).Elem()
		n := 0
		fill(v, &n)
		in := v.Interface()
		out := rtnode.UnmarshalPayload(rtnode.MarshalPayload(in))
		if got := reflect.TypeOf(out); got != typ {
			t.Errorf("%s: round trip changed type to %v", typ, got)
			continue
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("%s: round trip changed value:\n sent %#v\n got  %#v", typ, in, out)
		}
	}
}

// fill gives every settable scalar in v a distinct nonzero value and
// every slice two elements, so a codec that skips or swaps a field
// shows up as a difference. Interface fields stay nil.
func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString("s" + string(rune('a'+*n%26)))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fill(f, n)
			}
		}
	}
}
