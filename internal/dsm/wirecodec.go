package dsm

import (
	"filaments/internal/kernel"
	"filaments/internal/rtnode"
)

// Binary wire codecs for the page protocol (tags 16–19; see the tag map
// in rtnode/codec.go). pageData is THE hot payload of the real-UDP
// binding — a whole block frame per message — so its encoder appends
// into the transport's pooled buffer and its decoder aliases the receive
// buffer: zero codec allocations in both directions (the install path
// copies synchronously, per the kernel contract). The encode/decode pair
// below is split into *Into helpers so the allocation-gate benchmark can
// measure the codec body without the interface boxing the registry
// requires.
func init() {
	rtnode.RegisterWireCodec(pageReq{}, 16,
		func(e *rtnode.Enc, v any) { m := v.(pageReq); encPageReq(e, &m) },
		func(d *rtnode.Dec) any {
			var m pageReq
			decPageReqInto(d, &m)
			return m
		})
	rtnode.RegisterWireCodec(pageData{}, 17,
		func(e *rtnode.Enc, v any) { m := v.(pageData); encPageData(e, &m) },
		func(d *rtnode.Dec) any {
			var m pageData
			decPageDataInto(d, &m)
			return m
		})
	rtnode.RegisterWireCodec(redirect{}, 18,
		func(e *rtnode.Enc, v any) {
			m := v.(redirect)
			e.Varint(int64(m.Block))
			e.Varint(int64(m.Owner))
		},
		func(d *rtnode.Dec) any {
			var m redirect
			m.Block = int32(d.Varint())
			m.Owner = kernel.NodeID(d.Varint())
			return m
		})
	rtnode.RegisterWireCodec(invalReq{}, 19,
		func(e *rtnode.Enc, v any) { e.Varint(int64(v.(invalReq).Block)) },
		func(d *rtnode.Dec) any { return invalReq{Block: int32(d.Varint())} })
	rtnode.RegisterWireCodec(lrcFlush{}, 20,
		func(e *rtnode.Enc, v any) { m := v.(lrcFlush); encLRCFlush(e, &m) },
		func(d *rtnode.Dec) any {
			var m lrcFlush
			decLRCFlushInto(d, &m)
			return m
		})
}

//dflint:hotpath
func encLRCFlush(e *rtnode.Enc, m *lrcFlush) {
	e.Uvarint(uint64(len(m.Blocks)))
	for i, b := range m.Blocks {
		e.Varint(int64(b))
		e.Bytes(m.Diffs[i])
	}
}

// decLRCFlushInto decodes into m; the diff slices alias the input buffer
// (serveFlush patches the home frame synchronously, per the kernel
// contract).
//
//dflint:hotpath
func decLRCFlushInto(d *rtnode.Dec, m *lrcFlush) {
	n := d.Uvarint()
	if n > uint64(d.Remaining()) { // each entry costs ≥2 bytes; reject bogus lengths
		d.Fail()
		return
	}
	for i := uint64(0); i < n; i++ {
		m.Blocks = append(m.Blocks, int32(d.Varint()))
		m.Diffs = append(m.Diffs, d.Bytes())
	}
	if len(m.Blocks) == 0 {
		m.Blocks, m.Diffs = nil, nil // nil-vs-empty carries no wire meaning
	}
}

//dflint:hotpath
func encPageReq(e *rtnode.Enc, m *pageReq) {
	e.Varint(int64(m.Block))
	e.Bool(m.Write)
	e.Varint(m.HaveVer)
}

//dflint:hotpath
func decPageReqInto(d *rtnode.Dec, m *pageReq) {
	m.Block = int32(d.Varint())
	m.Write = d.Bool()
	m.HaveVer = d.Varint()
}

//dflint:hotpath
func encPageData(e *rtnode.Enc, m *pageData) {
	e.Varint(int64(m.Block))
	e.Bool(m.GrantOwner)
	e.Bool(m.Diff)
	e.Varint(m.Ver)
	e.Bytes(m.Data)
	e.Uvarint(uint64(len(m.Copyset)))
	for _, n := range m.Copyset {
		e.Varint(int64(n))
	}
}

// decPageDataInto decodes into m, reusing m.Copyset's capacity; m.Data
// aliases the input buffer.
//
//dflint:hotpath
func decPageDataInto(d *rtnode.Dec, m *pageData) {
	m.Block = int32(d.Varint())
	m.GrantOwner = d.Bool()
	m.Diff = d.Bool()
	m.Ver = d.Varint()
	m.Data = d.Bytes()
	n := d.Uvarint()
	if n > uint64(d.Remaining()) { // each entry costs ≥1 byte; reject bogus lengths
		d.Fail()
		return
	}
	m.Copyset = m.Copyset[:0]
	for i := uint64(0); i < n; i++ {
		m.Copyset = append(m.Copyset, kernel.NodeID(d.Varint()))
	}
	if len(m.Copyset) == 0 {
		m.Copyset = nil // nil-vs-empty carries no wire meaning
	}
}
