package udptrans

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"testing"
	"time"
)

func registerRawEcho(ep *Endpoint) {
	ep.Register(svcEcho, Service{
		Idempotent: true,
		Handler: func(_ *net.UDPAddr, req []byte) ([]byte, bool) {
			return req, false
		},
	})
}

// TestCallAllocations is the message-path allocation gate: a 64 B
// loopback round trip — both endpoints' read loops, the worker, the
// handler and the reply match included — costs at most one allocation
// through CallBuffered, and Call adds only its owned copy of the reply.
func TestCallAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	a, b := pair(t, Options{})
	registerRawEcho(b)
	req := bytes.Repeat([]byte{0x5a}, 64)
	ctx := context.Background()
	buffered := testing.AllocsPerRun(500, func() {
		_, buf, err := a.CallBuffered(ctx, b.Addr(), svcEcho, req)
		if err != nil {
			t.Fatal(err)
		}
		Release(buf)
	})
	call := testing.AllocsPerRun(500, func() {
		if _, err := a.Call(b.Addr(), svcEcho, req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: CallBuffered %.2f, Call %.2f", buffered, call)
	if buffered > 1 {
		t.Errorf("CallBuffered round trip: %.2f allocs/op, want <= 1", buffered)
	}
	if call > 2 {
		t.Errorf("Call round trip: %.2f allocs/op, want <= 2", call)
	}
}

// BenchmarkCallRoundTrip is the udptrans layer benchmark: a 64 B
// loopback echo through Call.
func BenchmarkCallRoundTrip(b *testing.B) {
	a, srv := benchPair(b)
	registerRawEcho(srv)
	req := bytes.Repeat([]byte{0x5a}, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Call(srv.Addr(), svcEcho, req); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPair(b *testing.B) (*Endpoint, *Endpoint) {
	b.Helper()
	x, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		b.Fatal(err)
	}
	y, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { x.Close(); y.Close() })
	return x, y
}

// TestCanceledCallRecyclesRacingReply pins the reply/cancel race: the
// read loop has already matched a reply and posted it to the call when
// the caller gives up. The reply's receive buffer must be recycled, not
// stranded in the call record, and the next call that reuses the record
// must see only its own reply.
func TestCanceledCallRecyclesRacingReply(t *testing.T) {
	a, b := pair(t, Options{RetransmitTimeout: time.Hour})
	registerRawEcho(b)
	id, err := a.Start(b.Addr(), svcEcho, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	// Deliver a reply exactly as the read loop does, before Await runs.
	bp := getBuf()
	*bp = append((*bp)[:0], "stale"...)
	a.handleReply(AddrKey(b.Addr()), header{kind: kindReply, svc: svcEcho, seq: id.seq}, *bp, bp)
	if len(id.p.reply) != 1 {
		t.Fatal("the reply was not posted to the call")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, buf, err := a.Await(ctx, id); err != context.Canceled || buf != nil {
		t.Fatalf("Await after cancel = (%v, %v), want (nil, context.Canceled)", buf, err)
	}
	if len(id.p.reply) != 0 {
		t.Fatal("the raced reply is stranded in the call record")
	}
	if len(*bp) != 0 {
		t.Fatal("the raced reply's receive buffer was not recycled")
	}
	if n := a.Outstanding(); n != 0 {
		t.Fatalf("Outstanding = %d after the canceled call", n)
	}

	id2, err := a.Start(b.Addr(), svcEcho, []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if id2.p != id.p {
		t.Fatal("the next call did not reuse the record")
	}
	payload, buf, err := a.Await(context.Background(), id2)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "second" {
		t.Fatalf("the reused record delivered %q, want its own reply %q", payload, "second")
	}
	Release(buf)
}

// TestCancelRacesRepliesUnderLoad cancels calls at random points while
// their replies race in, on a few goroutines sharing one endpoint's record
// pool: every call that completes must carry its own reply, and no record
// may stay registered. Run it with -race.
func TestCancelRacesRepliesUnderLoad(t *testing.T) {
	a, b := pair(t, Options{RetransmitTimeout: 5 * time.Millisecond})
	b.Register(svcEcho, Service{
		Idempotent: true,
		Handler: func(_ *net.UDPAddr, req []byte) ([]byte, bool) {
			time.Sleep(time.Duration(req[0]) * 10 * time.Microsecond)
			return req, false
		},
	})
	var wg sync.WaitGroup
	var mu sync.Mutex
	completed, canceled := 0, 0
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			for i := 0; i < 150; i++ {
				req := []byte(fmt.Sprintf("%c-g%d-call%d", byte(rng.IntN(20)), g, i))
				id, err := a.Start(b.Addr(), svcEcho, req)
				if err != nil {
					t.Error(err)
					return
				}
				if rng.IntN(2) == 0 {
					// Cancel from a second goroutine at a random moment.
					delay := time.Duration(rng.IntN(300)) * time.Microsecond
					go func() { time.Sleep(delay); a.Cancel(id) }()
				}
				payload, buf, err := a.Await(context.Background(), id)
				mu.Lock()
				switch {
				case err == ErrCanceled:
					canceled++
				case err != nil:
					t.Errorf("call %d/%d: %v", g, i, err)
				case !bytes.Equal(payload, req):
					t.Errorf("call %d/%d got %q, want its own reply %q", g, i, payload, req)
				default:
					completed++
				}
				mu.Unlock()
				Release(buf)
			}
		}(g)
	}
	wg.Wait()
	if n := a.Outstanding(); n != 0 {
		t.Fatalf("Outstanding = %d after every call returned", n)
	}
	t.Logf("%d completed, %d canceled", completed, canceled)
	if completed == 0 {
		t.Fatal("no call completed")
	}
}

// TestCancelBeforeAwaitSendsNothing: a call canceled between Start and
// Await never reaches the wire.
func TestCancelBeforeAwaitSendsNothing(t *testing.T) {
	a, b := pair(t, Options{})
	registerRawEcho(b)
	id, err := a.Start(b.Addr(), svcEcho, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	a.Cancel(id)
	a.Cancel(id) // idempotent
	if _, _, err := a.Await(context.Background(), id); err != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if s := a.Stats(); s.BytesSent != 0 || s.RequestsSent != 0 {
		t.Fatalf("a canceled call went out: %d requests, %d bytes", s.RequestsSent, s.BytesSent)
	}
}

// TestReplyFromUnmappedSource: a call addressed to the 16-byte
// IPv4-mapped form that net.ResolveUDPAddr produces completes with the
// reply the read loop sees from the 4-byte source, and handlers receive
// the 4-byte form.
func TestReplyFromUnmappedSource(t *testing.T) {
	a, b := pair(t, Options{RetransmitTimeout: 20 * time.Millisecond, MaxRetries: 3})
	var mu sync.Mutex
	var from *net.UDPAddr
	b.Register(svcEcho, Service{
		Idempotent: true,
		Handler: func(f *net.UDPAddr, req []byte) ([]byte, bool) {
			mu.Lock()
			from = f
			mu.Unlock()
			return req, false
		},
	})
	dst, err := net.ResolveUDPAddr("udp", b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if len(dst.IP) != net.IPv6len {
		t.Skipf("resolver returned a %d-byte IPv4 address; nothing to normalize", len(dst.IP))
	}
	got, err := a.Call(dst, svcEcho, []byte("mapped"))
	if err != nil {
		t.Fatalf("call to the 16-byte form: %v", err)
	}
	if string(got) != "mapped" {
		t.Fatalf("got %q", got)
	}
	if s := a.Stats(); s.BadReplies != 0 || s.Retransmits != 0 {
		t.Fatalf("reply was not matched at once: %+v", s)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(from.IP) != net.IPv4len || from.Port != a.Addr().Port {
		t.Fatalf("handler saw source %v (%d-byte IP), want the 4-byte form of %v", from, len(from.IP), a.Addr())
	}
}

// TestPeerInternBounded: more distinct source sockets than the intern
// table holds are all served, and the table never grows past its cap.
func TestPeerInternBounded(t *testing.T) {
	const peerCap = 4
	srv, err := listen("127.0.0.1:0", Options{}, peerCap)
	if err != nil {
		t.Fatal(err)
	}
	registerRawEcho(srv)
	var froms []*net.UDPAddr
	for i := 0; i < 3*peerCap; i++ {
		c, err := Listen("127.0.0.1:0", Options{RetransmitTimeout: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			req := []byte{byte(i), byte(j)}
			got, err := c.Call(srv.Addr(), svcEcho, req)
			if err != nil || !bytes.Equal(got, req) {
				t.Fatalf("source %d call %d: %q, %v", i, j, got, err)
			}
		}
		froms = append(froms, c.Addr())
		c.Close()
	}
	srv.Close() // joins the read loop, which owns the table
	if n := len(srv.peers.m); n > peerCap {
		t.Fatalf("intern table holds %d entries, cap %d", n, peerCap)
	}
	if n := len(srv.peers.m); n != peerCap {
		t.Fatalf("intern table holds %d entries after %d sources, want it full at %d", n, len(froms), peerCap)
	}
}

// TestInternSharesAddress: every datagram from one peer hands the
// handler the same *net.UDPAddr.
func TestInternSharesAddress(t *testing.T) {
	a, b := pair(t, Options{})
	seen := make(map[*net.UDPAddr]bool)
	var mu sync.Mutex
	b.Register(svcEcho, Service{
		Idempotent: true,
		Handler: func(f *net.UDPAddr, req []byte) ([]byte, bool) {
			mu.Lock()
			seen[f] = true
			mu.Unlock()
			return req, false
		},
	})
	for i := 0; i < 10; i++ {
		if _, err := a.Call(b.Addr(), svcEcho, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 {
		t.Fatalf("10 requests from one peer arrived with %d distinct source pointers", len(seen))
	}
}

// TestRetransmitTimerReuse: a call record whose timer fired is reused by
// later calls without a stale tick firing their first wait early.
func TestRetransmitTimerReuse(t *testing.T) {
	a, b := pair(t, Options{RetransmitTimeout: 30 * time.Millisecond})
	var mu sync.Mutex
	dropped := false
	b.Register(svcEcho, Service{
		Idempotent: true,
		Handler: func(_ *net.UDPAddr, req []byte) ([]byte, bool) {
			mu.Lock()
			defer mu.Unlock()
			if !dropped {
				dropped = true
				return nil, true // the first attempt times out once
			}
			return req, false
		},
	})
	if _, err := a.Call(b.Addr(), svcEcho, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if r := a.Stats().Retransmits; r != 1 {
		t.Fatalf("retransmits after the dropped attempt = %d, want 1", r)
	}
	for i := 0; i < 200; i++ {
		if _, err := a.Call(b.Addr(), svcEcho, []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	if r := a.Stats().Retransmits; r != 1 {
		t.Fatalf("retransmits = %d after 200 prompt calls on reused records, want still 1", r)
	}
}
