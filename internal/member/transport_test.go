package member

import (
	"net"
	"strings"
	"testing"
	"time"

	"pdcedu/internal/csnet"
)

// startGossipServer serves a Memberlist's gossip (and optionally a KV
// data plane) on a real csnet server, returning the bound address. It
// listens first, so the memberlist's ID is the dialable address.
func startGossipServer(t *testing.T, cfg Config, next csnet.Handler) (*Memberlist, string, *csnet.Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.ID = ln.Addr().String()
	ml, err := New(cfg)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	srv := csnet.NewServer(ml.Handler(next), 16)
	if err := srv.Serve(ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	t.Cleanup(func() { ml.Stop() })
	return ml, cfg.ID, srv
}

// TestCsnetTransportConvergence runs the SWIM stack over the real
// csnet transport (the default every non-test deployment uses): two
// nodes on real TCP converge to two alive members, and killing one's
// server gets it declared dead by the survivor.
func TestCsnetTransportConvergence(t *testing.T) {
	cfg := Config{ProbeInterval: 25 * time.Millisecond, SuspicionTimeout: 150 * time.Millisecond}
	a, addrA, _ := startGossipServer(t, cfg, nil)
	b, addrB, srvB := startGossipServer(t, cfg, nil)
	if err := b.Join(addrA); err != nil {
		t.Fatalf("join: %v", err)
	}
	a.Start()
	b.Start()
	waitFor(t, 5*time.Second, "both nodes see 2 alive", func() bool { return a.NumAlive() == 2 && b.NumAlive() == 2 })

	// Kill B outright (server and detector): A must declare it dead.
	if err := b.Stop(); err != nil {
		t.Fatal(err)
	}
	srvB.Shutdown()
	waitFor(t, 5*time.Second, "survivor declares the killed node dead", func() bool {
		for _, m := range a.Members() {
			if m.ID == addrB && m.State == StateDead {
				return true
			}
		}
		return false
	})
}

// TestCsnetTransportRedial pins the connection cache: a peer that
// breaks the connection fails one exchange, and the next exchange
// redials transparently instead of staying wedged on the broken conn.
func TestCsnetTransportRedial(t *testing.T) {
	peer, err := New(Config{ID: "peer"})
	if err != nil {
		t.Fatal(err)
	}
	srv := csnet.NewServer(peer.Handler(nil), 16)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := newCsnetTransport(time.Second)
	defer tr.Close()
	ping, err := encodeMessage(message{Kind: msgPing, From: "tester"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Exchange(addr, ping, time.Second); err != nil {
		t.Fatalf("first exchange: %v", err)
	}
	srv.Shutdown()
	if _, err := tr.Exchange(addr, ping, 200*time.Millisecond); err == nil {
		t.Fatal("exchange against a dead server succeeded")
	}
	// Same address, fresh server: the transport must redial.
	srv2 := csnet.NewServer(peer.Handler(nil), 16)
	if _, err := srv2.Start(addr); err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown()
	waitFor(t, 5*time.Second, "transport redials the restarted server", func() bool {
		_, err := tr.Exchange(addr, ping, time.Second)
		return err == nil
	})
}

// TestCsnetTransportClosed pins Close: every exchange after it fails
// fast, including ones that would have dialed fresh.
func TestCsnetTransportClosed(t *testing.T) {
	tr := newCsnetTransport(time.Second)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Exchange("127.0.0.1:1", []byte{1}, time.Second); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("exchange after close = %v, want transport closed", err)
	}
}

// TestCsnetTransportErrorStatus pins the non-OK reply path: a peer
// that cannot decode the gossip answers StatusError, which Exchange
// surfaces as an error.
func TestCsnetTransportErrorStatus(t *testing.T) {
	peer, err := New(Config{ID: "peer"})
	if err != nil {
		t.Fatal(err)
	}
	srv := csnet.NewServer(peer.Handler(nil), 16)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	tr := newCsnetTransport(time.Second)
	defer tr.Close()
	if _, err := tr.Exchange(addr, []byte{0xFF, 0xFF}, time.Second); err == nil {
		t.Fatal("garbage gossip exchanged cleanly")
	}
}

// TestHandlerRouting pins the port-sharing seam: OpGossip goes to the
// memberlist, data ops fall through to next, and a gossip-only
// endpoint (nil next) rejects data ops.
func TestHandlerRouting(t *testing.T) {
	ml, err := New(Config{ID: "node"})
	if err != nil {
		t.Fatal(err)
	}
	kv := csnet.NewKVHandler()
	shared := ml.Handler(kv)
	if resp := shared.Serve(csnet.Request{Op: csnet.OpSetV, Key: "k", Value: []byte("v")}); resp.Status != csnet.StatusOK {
		t.Fatalf("data op through shared handler = %s", resp.Status)
	}
	ping, err := encodeMessage(message{Kind: msgPing, From: "tester"})
	if err != nil {
		t.Fatal(err)
	}
	resp := shared.Serve(csnet.Request{Op: csnet.OpGossip, Value: ping})
	if resp.Status != csnet.StatusOK {
		t.Fatalf("gossip through shared handler = %s: %s", resp.Status, resp.Value)
	}
	if msg, err := decodeMessage(resp.Value); err != nil || msg.Kind != msgAck {
		t.Fatalf("gossip reply = %+v %v, want ack", msg, err)
	}
	gossipOnly := ml.Handler(nil)
	if resp := gossipOnly.Serve(csnet.Request{Op: csnet.OpGetV, Key: "k"}); resp.Status != csnet.StatusError {
		t.Fatalf("data op on gossip-only endpoint = %s, want error", resp.Status)
	}
	if resp := gossipOnly.Serve(csnet.Request{Op: csnet.OpGossip, Value: []byte{0xFF}}); resp.Status != csnet.StatusError {
		t.Fatalf("undecodable gossip = %s, want error", resp.Status)
	}
}

// TestStateString covers the state mnemonics (logged on every
// transition and printed by distnode's summary).
func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateAlive:   "alive",
		StateSuspect: "suspect",
		StateDead:    "dead",
		State(99):    "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}

// TestSubscriberDropAccounting pins the back-pressure contract: a
// subscriber that never drains loses events (counted by Dropped)
// instead of wedging the detector.
func TestSubscriberDropAccounting(t *testing.T) {
	ml, err := New(Config{ID: "node"})
	if err != nil {
		t.Fatal(err)
	}
	ch := ml.Subscribe()
	ml.mu.Lock()
	for i := 0; i < eventBuffer+10; i++ {
		ml.onChange(Update{ID: "peer", State: StateAlive, Incarnation: uint64(i)}, false)
	}
	ml.mu.Unlock()
	if got := ml.Dropped(); got != 10 {
		t.Fatalf("Dropped = %d, want 10", got)
	}
	if len(ch) != eventBuffer {
		t.Fatalf("subscriber buffer = %d, want full %d", len(ch), eventBuffer)
	}
}

// TestJoinErrors covers the join failure paths: every seed dead fails,
// self-only joins are no-ops, and one live seed among dead ones wins.
func TestJoinErrors(t *testing.T) {
	ml, err := New(Config{ID: "node", ConnTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ml.Stop()
	if err := ml.Join("127.0.0.1:1"); err == nil {
		t.Fatal("join of a dead seed succeeded")
	}
	if err := ml.Join("node"); err != nil {
		t.Fatalf("self-join = %v, want no-op nil", err)
	}
	if err := ml.Join(); err != nil {
		t.Fatalf("empty join = %v, want nil", err)
	}
	_, addr, _ := startGossipServer(t, Config{}, nil)
	if err := ml.Join("127.0.0.1:1", addr); err != nil {
		t.Fatalf("join with one live seed = %v, want nil", err)
	}
	if _, known := ml.tbl.state(addr); !known {
		t.Fatal("live seed not in the table after join")
	}
}

// TestSyncWithBadReply covers syncWith's protocol-error branches: a
// peer that answers a sync with the wrong kind, or with bytes that do
// not decode, is an error — not a crash, not a silent merge.
func TestSyncWithBadReply(t *testing.T) {
	ml, err := New(Config{ID: "node", ConnTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer ml.Stop()

	wrongKind, err := encodeMessage(message{Kind: msgAck, From: "evil"})
	if err != nil {
		t.Fatal(err)
	}
	srv := csnet.NewServer(csnet.HandlerFunc(func(r csnet.Request) csnet.Response {
		return csnet.Response{Status: csnet.StatusOK, Value: wrongKind}
	}), 4)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if err := ml.syncWith(addr); err == nil || !strings.Contains(err.Error(), "want syncAck") {
		t.Fatalf("sync with wrong-kind reply = %v", err)
	}

	garbage := csnet.NewServer(csnet.HandlerFunc(func(r csnet.Request) csnet.Response {
		return csnet.Response{Status: csnet.StatusOK, Value: []byte{0xFF, 0x01}}
	}), 4)
	gaddr, err := garbage.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer garbage.Shutdown()
	if err := ml.syncWith(gaddr); err == nil {
		t.Fatal("sync with undecodable reply succeeded")
	}
}
