// Fixtures for the codecsym analyzer: every RegisterWireCodec pair's
// Enc and Dec halves must read and write the same wire-op sequence.
package codecsym

import "rtnode"

type point struct {
	X, Y int64
}

type drifted struct {
	A int64
	B float64
}

type swapped struct {
	N uint64
	S string
}

type extra struct {
	A, B int64
}

type nested struct {
	Rows [][]float64
}

type envelope struct {
	Tag  int64
	Data any
}

type task struct {
	Fn   int32
	Args [3]int64
}

type viaHelper struct {
	T task
}

type counted struct {
	Blocks []int32
	Diffs  [][]byte
}

type badLoop struct {
	Vals []int64
}

type widthDrift struct {
	N int64
}

func init() {
	// Symmetric: matches exactly.
	rtnode.RegisterWireCodec(point{}, 16,
		func(e *rtnode.Enc, v any) {
			p := v.(point)
			e.Varint(p.X)
			e.Varint(p.Y)
		},
		func(d *rtnode.Dec) any {
			var p point
			p.X = d.Varint()
			p.Y = d.Varint()
			return p
		})

	// One-field drift: Enc writes A's varint then B's f64, Dec reads
	// them in the other order.
	rtnode.RegisterWireCodec(drifted{}, 17,
		func(e *rtnode.Enc, v any) {
			m := v.(drifted)
			e.Varint(m.A)
			e.F64(m.B)
		},
		func(d *rtnode.Dec) any { // want "wire codec for drifted \(tag 17\) is asymmetric.*step 1: Enc writes varint but Dec reads f64"
			var m drifted
			m.B = d.F64()
			m.A = d.Varint()
			return m
		})

	// Width drift: a Uvarint written, a Varint read (zig-zag differs).
	rtnode.RegisterWireCodec(swapped{}, 18,
		func(e *rtnode.Enc, v any) {
			m := v.(swapped)
			e.Uvarint(m.N)
			e.String(m.S)
		},
		func(d *rtnode.Dec) any { // want "tag 18.*step 1: Enc writes uvarint but Dec reads varint"
			var m swapped
			m.N = uint64(d.Varint())
			m.S = d.String()
			return m
		})

	// Count drift: Enc writes a second field Dec never reads.
	rtnode.RegisterWireCodec(extra{}, 19,
		func(e *rtnode.Enc, v any) {
			m := v.(extra)
			e.Varint(m.A)
			e.Varint(m.B)
		},
		func(d *rtnode.Dec) any { // want "tag 19.*Enc writes 1 op\(s\) Dec never reads"
			return extra{A: d.Varint()}
		})

	// Length-prefixed nesting with decoder bounds guards and nil
	// normalization: symmetric, no diagnostic.
	rtnode.RegisterWireCodec(nested{}, 20,
		func(e *rtnode.Enc, v any) {
			m := v.(nested)
			e.Uvarint(uint64(len(m.Rows)))
			for _, row := range m.Rows {
				e.Uvarint(uint64(len(row)))
				for _, f := range row {
					e.F64(f)
				}
			}
		},
		func(d *rtnode.Dec) any {
			var m nested
			n := d.Uvarint()
			if n > uint64(d.Remaining()) {
				d.Fail()
				return m
			}
			if n > 0 {
				m.Rows = make([][]float64, n)
				for i := range m.Rows {
					c := d.Uvarint()
					if c == 0 {
						continue
					}
					row := make([]float64, c)
					for j := range row {
						row[j] = d.F64()
					}
					m.Rows[i] = row
				}
			}
			if len(m.Rows) == 0 {
				m.Rows = nil
			}
			return m
		})

	// Interface recursion: EncodeAny must pair with DecodeAny.
	rtnode.RegisterWireCodec(envelope{}, 21,
		func(e *rtnode.Enc, v any) {
			m := v.(envelope)
			e.Varint(m.Tag)
			rtnode.EncodeAny(e, m.Data)
		},
		func(d *rtnode.Dec) any {
			var m envelope
			m.Tag = d.Varint()
			m.Data = rtnode.DecodeAny(d)
			return m
		})

	// Same-package helper indirection with a fixed-size array loop:
	// both halves route through encTask/decTask, symmetric.
	rtnode.RegisterWireCodec(viaHelper{}, 22,
		func(e *rtnode.Enc, v any) { encTask(e, v.(viaHelper).T) },
		func(d *rtnode.Dec) any { return viaHelper{T: decTask(d)} })

	// Counted pair loop (the lrcFlush shape): symmetric.
	rtnode.RegisterWireCodec(counted{}, 23,
		func(e *rtnode.Enc, v any) {
			m := v.(counted)
			e.Uvarint(uint64(len(m.Blocks)))
			for i, b := range m.Blocks {
				e.Varint(int64(b))
				e.Bytes(m.Diffs[i])
			}
		},
		func(d *rtnode.Dec) any {
			var m counted
			n := d.Uvarint()
			if n > uint64(d.Remaining()) {
				d.Fail()
				return m
			}
			for i := uint64(0); i < n; i++ {
				m.Blocks = append(m.Blocks, int32(d.Varint()))
				m.Diffs = append(m.Diffs, d.Bytes())
			}
			return m
		})

	// Loop-body drift: the repeated segment disagrees.
	rtnode.RegisterWireCodec(badLoop{}, 24,
		func(e *rtnode.Enc, v any) {
			m := v.(badLoop)
			e.Uvarint(uint64(len(m.Vals)))
			for _, x := range m.Vals {
				e.Varint(x)
			}
		},
		func(d *rtnode.Dec) any { // want "tag 24.*inside the repeated segment: step 1: Enc writes varint but Dec reads f64"
			var m badLoop
			n := d.Uvarint()
			for i := uint64(0); i < n; i++ {
				m.Vals = append(m.Vals, int64(d.F64()))
			}
			return m
		})

	// Helper drift: the asymmetry hides one call deep — Enc's helper
	// writes a trailing bool the Dec helper never reads.
	rtnode.RegisterWireCodec(widthDrift{}, 25,
		encDrift,
		decDrift) // want "tag 25.*Enc writes 1 op\(s\) Dec never reads \(first unread: bool\)"
}

func encTask(e *rtnode.Enc, t task) {
	e.Varint(int64(t.Fn))
	for _, a := range t.Args {
		e.Varint(a)
	}
}

func decTask(d *rtnode.Dec) task {
	var t task
	t.Fn = int32(d.Varint())
	for i := range t.Args {
		t.Args[i] = d.Varint()
	}
	return t
}

func encDrift(e *rtnode.Enc, v any) {
	m := v.(widthDrift)
	e.Varint(m.N)
	e.Bool(true)
}

func decDrift(d *rtnode.Dec) any {
	return widthDrift{N: d.Varint()}
}
