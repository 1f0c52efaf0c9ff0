package rtnode

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"filaments/internal/cost"
	"filaments/internal/kernel"
	"filaments/internal/udptrans"
)

const testSvc kernel.ServiceID = 5

// resolvedPair builds a two-node transport pair whose peer tables come
// from net.ResolveUDPAddr strings, the way a multi-process node (dfnode)
// installs them: IPv4 addresses in their 16-byte form, while datagrams
// arrive from the 4-byte form.
func resolvedPair(t *testing.T, opts udptrans.Options) ([2]*Node, [2]*Transport) {
	t.Helper()
	var eps [2]*udptrans.Endpoint
	for i := range eps {
		ep, err := udptrans.Listen("127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	peers := make([]*net.UDPAddr, len(eps))
	for i, ep := range eps {
		a, err := net.ResolveUDPAddr("udp", ep.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = a
	}
	if len(peers[0].IP) != net.IPv6len {
		t.Logf("resolver returned %d-byte IPv4 addresses", len(peers[0].IP))
	}
	var nodes [2]*Node
	var trs [2]*Transport
	for i := range eps {
		m := cost.Default()
		nodes[i] = NewNode(kernel.NodeID(i), &m)
		trs[i] = NewTransport(nodes[i], eps[i])
		trs[i].SetPeers(peers)
	}
	t.Cleanup(func() {
		for i := range trs {
			nodes[i].Close()
			trs[i].Close()
		}
	})
	return nodes, trs
}

// TestResolvedPeersAcceptRequestsAndEvents: a transport whose peers were
// resolved from strings identifies requests and events from them instead
// of dropping them as strays.
func TestResolvedPeersAcceptRequestsAndEvents(t *testing.T) {
	nodes, trs := resolvedPair(t, udptrans.Options{MaxRetries: 20, RetransmitTimeout: 10 * time.Millisecond})
	// Sources are recorded as overwrites (+1, so zero means "none yet"):
	// a retransmitted request may run the handler twice.
	var reqFrom, evFrom atomic.Int64
	// Set up in node context, like a run's kernel layers: handlers read the
	// raw chain under the monitor, and datagrams carry no happens-before
	// edge of their own.
	nodes[1].WithLock(func() {
		trs[1].Register(testSvc, kernel.Service{
			Name:       "echo",
			Idempotent: true,
			Category:   kernel.CatSync,
			Handler: func(from kernel.NodeID, req any) (any, int, kernel.Verdict) {
				reqFrom.Store(int64(from) + 1)
				return req, 8, kernel.Reply
			},
		})
		trs[1].HandleRaw(func(from kernel.NodeID, payload any) bool {
			evFrom.Store(int64(from) + 1)
			return true
		})
	})
	replies := make(chan any, 2)
	nodes[0].Spawn("caller", func(th kernel.Thread) {
		replies <- trs[0].Call(th, 1, testSvc, [][]float64{{1, 2}}, 16, kernel.CatSync)
		woke := false
		trs[0].RequestAsync(1, testSvc, [][]float64{{3}}, 8, kernel.CatSync, func(reply any) {
			replies <- reply
			woke = true
			nodes[0].Ready(th, true)
		})
		for !woke {
			th.Block()
		}
		trs[0].Send(1, [][]float64{{4}}, 8, kernel.CatSync)
	})
	waited := make(chan struct{})
	go func() { nodes[0].Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("the calls to a resolved peer never completed")
	}
	for i, want := range []float64{1, 3} {
		select {
		case r := <-replies:
			g, ok := r.([][]float64)
			if !ok || len(g) == 0 || g[0][0] != want {
				t.Fatalf("reply %d = %v, want an echo starting %v", i, r, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("reply %d never arrived", i)
		}
		if from := reqFrom.Load() - 1; from != 0 {
			t.Fatalf("request %d attributed to node %d, want 0", i, from)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for evFrom.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the event from a resolved peer was dropped")
		}
		time.Sleep(time.Millisecond)
	}
	if from := evFrom.Load() - 1; from != 0 {
		t.Fatalf("event attributed to node %d, want 0", from)
	}
}

// TestCancelStopsAsyncRequest: canceling an async request whose server
// never answers ends its retransmission at once — the await goroutine
// exits, and Outstanding returns to zero without the callback.
func TestCancelStopsAsyncRequest(t *testing.T) {
	nodes, trs := resolvedPair(t, udptrans.Options{MaxRetries: 1 << 30, RetransmitTimeout: 5 * time.Millisecond})
	trs[1].Register(testSvc, kernel.Service{
		Name:     "blackhole",
		Category: kernel.CatSync,
		Handler: func(kernel.NodeID, any) (any, int, kernel.Verdict) {
			return nil, 0, kernel.Drop
		},
	})
	var h kernel.Handle
	nodes[0].WithLock(func() {
		h = trs[0].RequestAsync(1, testSvc, nil, 8, kernel.CatSync, func(any) {
			t.Error("callback ran for a canceled request")
		})
	})
	time.Sleep(20 * time.Millisecond) // let a few retransmissions go out
	nodes[0].WithLock(func() { h.Cancel() })
	trs[0].inflight.Wait() // the await goroutine has exited
	nodes[0].WithLock(func() {
		if n := trs[0].Outstanding(); n != 0 {
			t.Fatalf("Outstanding = %d after cancel", n)
		}
		if !h.Done() {
			t.Fatal("canceled handle not done")
		}
	})
	if n := trs[0].Endpoint().Outstanding(); n != 0 {
		t.Fatalf("endpoint still holds %d calls", n)
	}
	sent := trs[0].Endpoint().Stats().RequestsSent + trs[0].Endpoint().Stats().Retransmits
	time.Sleep(20 * time.Millisecond)
	if again := trs[0].Endpoint().Stats().RequestsSent + trs[0].Endpoint().Stats().Retransmits; again != sent {
		t.Fatalf("transmissions continued after cancel: %d then %d", sent, again)
	}
}
