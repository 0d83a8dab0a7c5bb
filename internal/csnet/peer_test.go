package csnet

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestPeerNeverReturnsPoisoned kills the server under a Peer's
// connection, then restarts it on the same port: the Peer must notice
// the poisoned client and redial instead of handing the broken
// connection back out, and count the redial.
func TestPeerNeverReturnsPoisoned(t *testing.T) {
	srv := NewServer(NewKVHandler(), 16)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPeer(addr, 500*time.Millisecond)
	defer p.Close()

	cl1, err := p.Client()
	if err != nil {
		t.Fatal(err)
	}
	if err := cl1.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	if err := cl1.Ping(); err == nil {
		t.Fatal("ping succeeded against a shut-down server")
	}
	if !cl1.broken() {
		t.Fatal("client not poisoned by transport failure")
	}
	redials := csnetM.peerRedials.Value()
	// While the server is down, Client must fail (redial refused), never
	// return the poisoned client.
	if cl, err := p.Client(); err == nil && cl == cl1 {
		t.Fatal("peer handed back the poisoned client")
	}
	if d := csnetM.peerRedials.Value() - redials; d != 1 {
		t.Errorf("csnet.peer.redials grew by %d, want 1", d)
	}
	// Restart on the same port; the Peer must transparently redial.
	srv2 := NewServer(NewKVHandler(), 16)
	if _, err := srv2.Start(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Shutdown()
	cl2, err := p.Client()
	if err != nil {
		t.Fatal(err)
	}
	if cl2 == cl1 {
		t.Fatal("peer reused the poisoned client after restart")
	}
	if err := cl2.Ping(); err != nil {
		t.Fatalf("redialed client unusable: %v", err)
	}
}

// TestPeerRedialRaceKeepsOneConn hammers a cold Peer from many
// goroutines: every caller must end up with a working client, and the
// Peer must converge on a single shared connection (racing extra dials
// are closed, not leaked into it).
func TestPeerRedialRaceKeepsOneConn(t *testing.T) {
	srv := NewServer(NewKVHandler(), 64)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	p := NewPeer(addr, 2*time.Second)
	defer p.Close()

	const goroutines = 16
	clients := make([]*Client, goroutines)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := p.Client()
			if err != nil {
				errs <- err
				return
			}
			clients[g] = cl
			if err := cl.Ping(); err != nil {
				errs <- fmt.Errorf("goroutine %d got unusable client: %w", g, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The Peer converges on exactly one connection.
	final, err := p.Client()
	if err != nil {
		t.Fatal(err)
	}
	for g, cl := range clients {
		if cl != final {
			// A loser of the install race was closed; its caller must
			// have received the winner, never a dead extra.
			t.Fatalf("goroutine %d holds a client that is not the Peer's", g)
		}
	}
	if err := final.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestPeerCloseDuringDial closes a Peer while its first dial is in
// flight: the dial that finishes afterwards is closed, not installed,
// so no connection outlives the Peer.
func TestPeerCloseDuringDial(t *testing.T) {
	srv := NewServer(NewKVHandler(), 16)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	p := NewPeer(addr, 2*time.Second)
	dialing, closed := make(chan struct{}), make(chan struct{})
	var dialed *Client
	p.dial = func(addr string, timeout time.Duration) (*Client, error) {
		close(dialing)
		<-closed
		cl, err := Dial(addr, timeout)
		dialed = cl
		return cl, err
	}
	got := make(chan error, 1)
	go func() {
		_, err := p.Client()
		got <- err
	}()
	<-dialing
	p.Close()
	close(closed)
	if err := <-got; !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("Client across Close = %v, want ErrPeerClosed", err)
	}
	if dialed == nil || !dialed.broken() { // broken: its conn is closed
		t.Fatal("the dial that finished after Close was left open")
	}
	if _, err := p.Client(); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("Client after Close = %v, want ErrPeerClosed", err)
	}
}
