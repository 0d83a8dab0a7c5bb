package csnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
				got, err := cl.SendFrame(msg).Wait()
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
// report broken, and later calls must fail fast instead of hanging.
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
	for deadline := time.Now().Add(2 * time.Second); !cl.broken() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(block)
	<-done
	for i, p := range pendings {
		if _, err := p.Wait(); err == nil {
			t.Fatalf("request %d succeeded after server shutdown", i)
		}
	}
	if !cl.broken() {
		t.Error("client not marked broken after transport failure")
	}
	if _, err := cl.SendFrame([]byte("y")).Wait(); err == nil {
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
	_, err = cl.SendFrame([]byte("never answered")).Wait()
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

// TestMuxOversizeReply serves a reply too large for a frame: that call
// is answered StatusError, and the connection it shares with a
// concurrent call and a later Ping keeps working.
func TestMuxOversizeReply(t *testing.T) {
	bigDone := make(chan struct{})
	srv := NewServer(HandlerFunc(func(r Request) Response {
		if r.Key == "big" {
			defer close(bigDone)
			return Response{Status: StatusOK, Value: make([]byte, MaxFrameSize)}
		}
		<-bigDone // answered after the oversize reply is built
		return Response{Status: StatusOK, Value: r.Value}
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
	small := cl.Send(Request{Op: OpEcho, Key: "small", Value: []byte("v")})
	big := cl.Send(Request{Op: OpEcho, Key: "big"})
	if resp, err := big.Response(); err != nil || resp.Status != StatusError {
		t.Fatalf("oversize reply = %v %q, %v; want StatusError", resp.Status, resp.Value, err)
	}
	if resp, err := small.Response(); err != nil || string(resp.Value) != "v" {
		t.Fatalf("concurrent call = %+v, %v", resp, err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection unusable after an oversize reply: %v", err)
	}
}

// TestServerRefusesUnmuxedConn opens a connection with a
// length-prefixed frame instead of the CSM1 preamble: the server sends
// nothing back, closes it, never runs the handler, and counts one
// decode error.
func TestServerRefusesUnmuxedConn(t *testing.T) {
	var served atomic.Int64
	srv := NewServer(HandlerFunc(func(Request) Response {
		served.Add(1)
		return Response{Status: StatusOK}
	}), 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	before := csnetM.decodeEr.Value()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body, err := EncodeRequest(Request{Op: OpGetV, Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, body); err != nil {
		t.Fatal(err)
	}
	// Closed with the frame's body unread, so a reset is as good as EOF;
	// only a timeout would mean the server kept the connection open.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 64))
	var ne net.Error
	if n != 0 || err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("read = %d bytes, %v; want the connection closed with no reply", n, err)
	}
	if n := served.Load(); n != 0 {
		t.Errorf("handler ran %d times for an unmuxed connection", n)
	}
	if d := csnetM.decodeEr.Value() - before; d != 1 {
		t.Errorf("decode_errors grew by %d, want 1", d)
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

// TestMuxCloseWaitsForItsLoops: once Close returns, the client's reader
// and writer have exited — none is left to allocate its exit error
// inside whatever the caller measures next. A client's loops are told
// apart from every other by the goroutine that dialed it. Go has no
// join, so a loop may still be seen returning from the WaitGroup.Done
// that let Close return, its last act; anywhere else it is at work.
func TestMuxCloseWaitsForItsLoops(t *testing.T) {
	srv := NewServer(NewKVHandler(), 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	for i := 0; i < 20; i++ {
		cl, err := Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
		if live := muxLoopsDialedHere(); len(live) != 2 {
			t.Fatalf("a live client runs %d loops, want a reader and a writer: %s", len(live), strings.Join(live, "; "))
		}
		cl.Close()
		for _, g := range muxLoopsDialedHere() {
			if _, top, _ := strings.Cut(g, "\n"); !strings.HasPrefix(top, "sync.(*WaitGroup).") {
				t.Fatalf("close %d returned with one of the client's loops still at work: %s", i, g)
			}
		}
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
			_, _ = cl.SendFrame([]byte("busy")).Wait()
		}
	}
}

// rawPeer is a muxed server reduced to a socket: it takes one
// connection, reads the preamble and one request frame, and lets
// answer write whatever it likes in reply to that frame's seq. It
// returns the address to Dial; the connection stays open until the
// test ends.
func rawPeer(t *testing.T, answer func(conn net.Conn, seq uint64)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		pre := make([]byte, len(muxMagic)+muxHeaderSize)
		if _, err := io.ReadFull(conn, pre); err != nil {
			t.Error(err)
			return
		}
		seq, n := parseMuxHeader(pre[len(muxMagic):])
		if _, err := io.ReadFull(conn, make([]byte, n)); err != nil {
			t.Error(err)
			return
		}
		answer(conn, seq)
		// Hold the connection until the client hangs up.
		io.Copy(io.Discard, conn)
	}()
	return ln.Addr().String()
}

// TestMuxUnknownSeqFailsAtHeader: a reply header for a seq nobody sent
// poisons the connection as soon as it is read — the caller in flight
// gets the "unknown seq" error at once, not a read timeout after
// waiting on a body the header promised and never sent.
func TestMuxUnknownSeqFailsAtHeader(t *testing.T) {
	addr := rawPeer(t, func(conn net.Conn, seq uint64) {
		hdr := make([]byte, muxHeaderSize)
		putMuxHeader(hdr, seq+1000, 100) // and no body
		conn.Write(hdr)
	})
	const timeout = 5 * time.Second
	cl, err := Dial(addr, timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	_, err = cl.SendFrame([]byte("x")).Wait()
	if err == nil || !strings.Contains(err.Error(), "unknown seq") {
		t.Fatalf("err = %v, want the unknown seq error", err)
	}
	if d := time.Since(start); d > timeout/5 {
		t.Fatalf("failed after %v, want well under the %v timeout", d, timeout)
	}
}

// TestMuxReplyBodyCut: a reply whose body stops short fails its caller
// with the read error when the connection closes, and one whose body
// never comes fails it at its own deadline, for a Batch's frame (the
// transport's body buffer) and a plain one alike.
func TestMuxReplyBodyCut(t *testing.T) {
	for _, batched := range []bool{false, true} {
		wait := func(cl *Client) error {
			if !batched {
				_, err := cl.SendFrame([]byte("x")).Wait()
				return err
			}
			b := cl.Batch()
			b.Add(mergeReq(1, []byte("v")))
			b.Send()
			_, err := b.NextV()
			return err
		}
		cut := rawPeer(t, func(conn net.Conn, seq uint64) {
			hdr := make([]byte, muxHeaderSize)
			putMuxHeader(hdr, seq, 100)
			conn.Write(append(hdr, make([]byte, 40)...))
			conn.Close()
		})
		cl, err := Dial(cut, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := wait(cl); err == nil || !strings.Contains(err.Error(), "mux read body") {
			t.Errorf("batched=%v, body cut short: err = %v, want the body read error", batched, err)
		}
		cl.Close()

		silent := rawPeer(t, func(conn net.Conn, seq uint64) {
			hdr := make([]byte, muxHeaderSize)
			putMuxHeader(hdr, seq, 100)
			conn.Write(hdr)
		})
		const timeout = 300 * time.Millisecond
		if cl, err = Dial(silent, timeout); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := wait(cl); err == nil {
			t.Errorf("batched=%v: a reply with no body succeeded", batched)
		}
		if d := time.Since(start); d > 10*timeout {
			t.Errorf("batched=%v: a reply with no body failed after %v, want about the %v timeout", batched, d, timeout)
		}
		cl.Close()
	}
}

// TestMuxFramesPerFlush: every flush of a muxed writer books how many
// frames it carried, so a pipelined burst's requests and replies all
// land in csnet.mux.frames_per_flush, in fewer flushes than frames.
func TestMuxFramesPerFlush(t *testing.T) {
	cl := startFrames(t, aliasFrames{})
	before := csnetM.framesPerFlush.Snapshot()
	const depth = 64
	var pend [depth]*Pending
	for i := range pend {
		pend[i] = cl.SendFrame(payload(100, i))
	}
	for i, p := range pend {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	after := csnetM.framesPerFlush.Snapshot()
	flushes, frames := after.Count-before.Count, after.Sum-before.Sum
	if frames < 2*depth || flushes == 0 || flushes >= frames {
		t.Fatalf("%d flushes carried %d frames, want at least %d frames in fewer flushes", flushes, frames, 2*depth)
	}
}
