package csnet

import (
	"bytes"
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestMuxNoCrossTalk hammers one multiplexed connection from many
// goroutines and checks every caller gets exactly its own response —
// the core safety property of sequence-numbered dispatch. Run with
// -race.
func TestMuxNoCrossTalk(t *testing.T) {
	srv := NewFrameServer(frameFunc(func(body []byte) []byte {
		return append([]byte("echo:"), body...)
	}), 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	cl, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const goroutines, perG = 16, 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				msg := []byte(fmt.Sprintf("g%d-i%d", g, i))
				got, err := cl.RoundTrip(msg)
				if err != nil {
					errs <- err
					return
				}
				if want := append([]byte("echo:"), msg...); !bytes.Equal(got, want) {
					errs <- fmt.Errorf("cross-talk: sent %q got %q", msg, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMuxPipelinedBatch fires a burst of async sends before collecting
// any response and checks each Pending resolves to its own frame.
func TestMuxPipelinedBatch(t *testing.T) {
	srv := NewFrameServer(frameFunc(func(body []byte) []byte {
		return body // identity: response must match request exactly
	}), 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	cl, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const depth = 500
	pendings := make([]*Pending, depth)
	for i := range pendings {
		pendings[i] = cl.SendFrame([]byte(strconv.Itoa(i)))
	}
	for i, p := range pendings {
		got, err := p.Wait()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if string(got) != strconv.Itoa(i) {
			t.Fatalf("request %d resolved to %q", i, got)
		}
	}
}

// TestMuxOutOfOrderResponses delays early requests so the server
// completes later ones first; seq matching must still route every
// response to the right caller.
func TestMuxOutOfOrderResponses(t *testing.T) {
	var n int
	var mu sync.Mutex
	srv := NewFrameServer(frameFunc(func(body []byte) []byte {
		mu.Lock()
		n++
		first := n <= 4
		mu.Unlock()
		if first {
			time.Sleep(50 * time.Millisecond)
		}
		return body
	}), 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	cl, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const depth = 16
	pendings := make([]*Pending, depth)
	for i := range pendings {
		pendings[i] = cl.SendFrame([]byte(strconv.Itoa(i)))
	}
	for i := depth - 1; i >= 0; i-- { // collect in reverse for good measure
		got, err := pendings[i].Wait()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if string(got) != strconv.Itoa(i) {
			t.Fatalf("request %d resolved to %q", i, got)
		}
	}
}

// TestMuxPoisonFailsAllPending kills the server mid-flight: every
// outstanding request must resolve with an error, the client must
// report Broken, and later calls must fail fast instead of hanging.
func TestMuxPoisonFailsAllPending(t *testing.T) {
	block := make(chan struct{})
	srv := NewFrameServer(frameFunc(func(body []byte) []byte {
		<-block
		return body
	}), 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const depth = 8
	pendings := make([]*Pending, depth)
	for i := range pendings {
		pendings[i] = cl.SendFrame([]byte("x"))
	}
	// Shutdown closes the connections and then waits for the handlers:
	// release them only after the client has seen the close, so no
	// reply can slip out ahead of the poison.
	done := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(done)
	}()
	for deadline := time.Now().Add(2 * time.Second); !cl.Broken() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(block)
	<-done
	for i, p := range pendings {
		if _, err := p.Wait(); err == nil {
			t.Fatalf("request %d succeeded after server shutdown", i)
		}
	}
	if !cl.Broken() {
		t.Error("client not marked broken after transport failure")
	}
	if _, err := cl.RoundTrip([]byte("y")); err == nil {
		t.Error("call on poisoned client succeeded")
	}
}

// TestMuxRequestTimeout checks that a server that never answers fails
// the request within (roughly) the configured timeout instead of
// hanging forever.
func TestMuxRequestTimeout(t *testing.T) {
	block := make(chan struct{})
	srv := NewFrameServer(frameFunc(func(body []byte) []byte {
		<-block
		return body
	}), 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	defer close(block) // unblock handlers before Shutdown waits on them
	cl, err := Dial(addr, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	start := time.Now()
	_, err = cl.RoundTrip([]byte("never answered"))
	if err == nil {
		t.Fatal("unanswered request succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// TestMuxOversizeRequest fails locally without poisoning the
// connection.
func TestMuxOversizeRequest(t *testing.T) {
	srv := NewServer(NewKVHandler(), 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	cl, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.SendFrame(make([]byte, MaxFrameSize+1)).Wait(); err != ErrFrameTooLarge {
		t.Fatalf("oversize frame err = %v, want ErrFrameTooLarge", err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection unusable after local oversize rejection: %v", err)
	}
}

// TestLegacyAndMuxCoexist drives one server with a raw legacy-framed
// connection and a multiplexed Client at the same time: the preamble
// sniff must route each connection to the right serving loop.
func TestLegacyAndMuxCoexist(t *testing.T) {
	srv := NewServer(NewKVHandler(), 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	mux, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	if err := mux.Set("shared", []byte("via-mux")); err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	reqBody, err := EncodeRequest(Request{Op: OpGet, Key: "shared"})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(raw, reqBody); err != nil {
		t.Fatal(err)
	}
	respBody, err := ReadFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(respBody)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK || string(resp.Value) != "via-mux" {
		t.Fatalf("legacy read of mux write = %v %q", resp.Status, resp.Value)
	}
	// Several frames on the same legacy connection (exercises the
	// reused scratch buffers).
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("legacy-%d", i)
		reqBody, err := EncodeRequest(Request{Op: OpSet, Key: key, Value: []byte(key)})
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(raw, reqBody); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFrame(raw); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := mux.Get(key); err != nil || !ok || string(v) != key {
			t.Fatalf("mux read of legacy write %s = %q %v %v", key, v, ok, err)
		}
	}
}

// TestMuxCloseFailsPending verifies Close resolves in-flight waits with
// ErrClientClosed rather than leaking blocked goroutines.
func TestMuxCloseFailsPending(t *testing.T) {
	block := make(chan struct{})
	srv := NewFrameServer(frameFunc(func(body []byte) []byte {
		<-block
		return body
	}), 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	defer close(block) // unblock handlers before Shutdown waits on them
	cl, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p := cl.SendFrame([]byte("stuck"))
	done := make(chan error, 1)
	go func() {
		_, err := p.Wait()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the frame reach the wire
	cl.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending request succeeded after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending Wait still blocked after Close")
	}
}

// TestMuxStuckRequestTimesOutOnBusyConn pins one request in a handler
// that never answers while other requests keep the shared connection
// busy: the stuck caller must still time out (the reader arms the
// earliest pending request's absolute deadline, so steady traffic
// cannot postpone enforcement forever).
func TestMuxStuckRequestTimesOutOnBusyConn(t *testing.T) {
	block := make(chan struct{})
	srv := NewFrameServer(frameFunc(func(body []byte) []byte {
		if string(body) == "stuck" {
			<-block
		}
		return body
	}), 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	defer close(block) // unblock the pinned handler before Shutdown waits
	cl, err := Dial(addr, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stuck := cl.SendFrame([]byte("stuck"))
	done := make(chan error, 1)
	go func() {
		_, err := stuck.Wait()
		done <- err
	}()
	// Keep the connection busy with fast traffic until the stuck
	// request resolves.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("stuck request succeeded")
			}
			return
		case <-deadline:
			t.Fatal("stuck request never timed out while the connection stayed busy")
		default:
			_, _ = cl.RoundTrip([]byte("busy"))
		}
	}
}
