package rtnode

import "reflect"

// CodecTypes returns every registered codec's payload type with its tag,
// so the external registry test can walk the production wire types.
func CodecTypes() map[reflect.Type]uint16 {
	codecMu.Lock()
	defer codecMu.Unlock()
	out := make(map[reflect.Type]uint16, len(codecByType))
	for t, c := range codecByType {
		out[t] = c.tag
	}
	return out
}
