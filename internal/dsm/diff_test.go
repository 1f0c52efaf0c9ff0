package dsm

import (
	"bytes"
	"math/rand"
	"testing"

	"filaments/internal/kernel"
	"filaments/internal/rtnode"
)

// TestDiffRoundTrip is the twin-and-diff property test: for random page
// contents and random write patterns, encoding the diff from twin to
// current and applying it to a copy of the twin must reproduce the
// current page exactly — the same sequence install() runs when a diff
// arrives. Patterns sweep the shapes the apps generate: sparse word
// writes (quadrature results), contiguous strips (jacobi boundary rows),
// whole-page rewrites, and the no-change case.
func TestDiffRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{64, 1024, 4096, 4096 + 8, 100} // including a non-word-multiple tail
	for _, size := range sizes {
		for trial := 0; trial < 200; trial++ {
			base := make([]byte, size)
			rng.Read(base)
			cur := append([]byte(nil), base...)
			switch trial % 4 {
			case 0: // sparse word writes
				for k := 0; k < 1+trial%8; k++ {
					off := rng.Intn(size)
					cur[off] ^= byte(1 + rng.Intn(255))
				}
			case 1: // one contiguous strip
				lo := rng.Intn(size)
				hi := lo + 1 + rng.Intn(size-lo)
				rng.Read(cur[lo:hi])
			case 2: // whole-page rewrite
				rng.Read(cur)
			case 3: // no change
			}

			// Generous limit (size + entry-header headroom): always encodable.
			diff, ok := diffEncode(base, cur, size+64)
			if !ok {
				t.Fatalf("size %d trial %d: diffEncode gave up under a generous limit", size, trial)
			}
			if bytes.Equal(base, cur) && len(diff) != 0 {
				t.Fatalf("size %d trial %d: identical pages produced %d-byte diff", size, trial, len(diff))
			}
			got := append([]byte(nil), base...)
			if !diffApply(got, diff) {
				t.Fatalf("size %d trial %d: diffApply rejected its own encoder's diff", size, trial)
			}
			if !bytes.Equal(got, cur) {
				t.Fatalf("size %d trial %d: twin+diff != page", size, trial)
			}
		}
	}
}

// TestDiffLimitFallback pins the full-page fallback decision: when the
// changed region exceeds the limit, diffEncode must report !ok rather
// than return an oversized diff.
func TestDiffLimitFallback(t *testing.T) {
	base := make([]byte, 4096)
	cur := make([]byte, 4096)
	for i := range cur {
		cur[i] = byte(i + 1) // every word differs
	}
	if _, ok := diffEncode(base, cur, len(cur)/2); ok {
		t.Fatal("whole-page rewrite fit under a half-page limit")
	}
	// And a small change must come in far under it.
	cur2 := append([]byte(nil), base...)
	cur2[100] = 0xff
	diff, ok := diffEncode(base, cur2, len(cur2)/2)
	if !ok {
		t.Fatal("single-byte change did not fit under a half-page limit")
	}
	if len(diff) >= 64 {
		t.Fatalf("single-byte change produced a %d-byte diff", len(diff))
	}
}

// TestDiffApplyMalformed feeds diffApply corrupt input: it must reject
// (return false) without panicking or writing out of bounds, for runs
// and skips that overshoot the frame and for truncated entries.
func TestDiffApplyMalformed(t *testing.T) {
	frame := make([]byte, 64)
	cases := []struct {
		name string
		diff []byte
	}{
		{"skip past end", []byte{200, 1, 0xff}},
		{"run past end", []byte{0, 200, 0xff}},
		{"zero run", []byte{0, 0}},
		{"truncated head", []byte{5}},
		{"truncated run", []byte{0, 8, 1, 2, 3}},
	}
	for _, tc := range cases {
		if diffApply(frame, tc.diff) {
			t.Errorf("%s: malformed diff accepted", tc.name)
		}
	}
	// Random garbage: must never panic.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		junk := make([]byte, rng.Intn(80))
		rng.Read(junk)
		diffApply(frame, junk)
	}
}

// TestPageDataCodecZeroAlloc is the allocation gate from the issue: one
// pageData encode+decode round trip through the binary codec must cost
// zero allocations when the caller reuses buffers, because this is the
// per-page-transfer hot path. The
// registry's `any` boxing is excluded by design — the transport hands
// pooled buffers straight to these helpers.
func TestPageDataCodecZeroAlloc(t *testing.T) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	in := pageData{
		Block:      42,
		GrantOwner: true,
		Ver:        9,
		Data:       data,
		Copyset:    []kernel.NodeID{0, 3, 7},
	}
	e := &rtnode.Enc{B: make([]byte, 0, len(data)+64)}
	var out pageData
	out.Copyset = make([]kernel.NodeID, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		e.B = e.B[:0]
		encPageData(e, &in)
		d := rtnode.Dec{B: e.B}
		decPageDataInto(&d, &out)
		if d.Bad {
			t.Fatal("decode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("pageData codec round trip costs %.0f allocs/op, want 0", allocs)
	}
	if out.Block != in.Block || out.Ver != in.Ver || !bytes.Equal(out.Data, in.Data) {
		t.Fatal("round trip changed value")
	}
}

// TestPageDataCodecBogusCount pins the decoder's structural validation: a
// copyset count larger than the remaining bytes must fail the decode, not
// allocate.
func TestPageDataCodecBogusCount(t *testing.T) {
	e := &rtnode.Enc{}
	encPageData(e, &pageData{Block: 1, Data: []byte{1, 2, 3}})
	// Rewrite the trailing copyset count (last varint, value 0) to a lie.
	b := append(e.B[:len(e.B)-1:len(e.B)-1], 0xff, 0xff, 0x7f)
	var out pageData
	d := rtnode.Dec{B: b}
	decPageDataInto(&d, &out)
	if !d.Bad {
		t.Fatal("bogus copyset count decoded cleanly")
	}
}

// BenchmarkPageDataBinary measures one page encode+decode round trip
// through the binary codec. Run with
//
//	go test ./internal/dsm -bench PageData -benchmem
func BenchmarkPageDataBinary(b *testing.B) {
	in := pageData{Block: 42, Ver: 3, Data: make([]byte, 4096), Copyset: []kernel.NodeID{1, 2}}
	e := &rtnode.Enc{B: make([]byte, 0, 4200)}
	var out pageData
	out.Copyset = make([]kernel.NodeID, 0, 8)
	b.ReportAllocs()
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		e.B = e.B[:0]
		encPageData(e, &in)
		d := rtnode.Dec{B: e.B}
		decPageDataInto(&d, &out)
	}
}
