package main

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pdcedu/internal/csnet"
)

func startMeanServer(t *testing.T) (*RPCServer, string) {
	t.Helper()
	srv := NewRPCServer()
	srv.Register("stats.mean", func(args []byte) ([]byte, error) {
		var xs []float64
		if err := Unmarshal(args, &xs); err != nil {
			return nil, err
		}
		s := 0.0
		for _, x := range xs {
			s += x
		}
		if len(xs) > 0 {
			s /= float64(len(xs))
		}
		return Marshal(s)
	})
	srv.Register("fail", func(args []byte) ([]byte, error) {
		return nil, errors.New("handler exploded")
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv, addr
}

func TestRPCRoundTrip(t *testing.T) {
	_, addr := startMeanServer(t)
	cl, err := DialRPC(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var mean float64
	if err := cl.Call("stats.mean", []float64{80, 90, 100}, &mean); err != nil {
		t.Fatal(err)
	}
	if mean != 90 {
		t.Errorf("mean = %g, want 90", mean)
	}
	// nil reply discards the result without error.
	if err := cl.Call("stats.mean", []float64{1, 2}, nil); err != nil {
		t.Errorf("nil-reply call: %v", err)
	}
}

func TestRPCUnknownMethod(t *testing.T) {
	_, addr := startMeanServer(t)
	cl, err := DialRPC(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Call("no.such.method", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("Call error = %v (%T), want *RemoteError", err, err)
	}
	if !strings.Contains(re.Msg, "unknown method") || re.Method != "no.such.method" {
		t.Errorf("RemoteError = %+v, want unknown-method for no.such.method", re)
	}
	// The connection survives a dispatch error.
	var mean float64
	if err := cl.Call("stats.mean", []float64{4, 6}, &mean); err != nil || mean != 5 {
		t.Errorf("call after error: mean=%g err=%v", mean, err)
	}
}

func TestRPCHandlerError(t *testing.T) {
	_, addr := startMeanServer(t)
	cl, err := DialRPC(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Call("fail", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "handler exploded") {
		t.Errorf("Call(fail) = %v, want RemoteError carrying the handler message", err)
	}
}

// TestRPCMalformedPayload sends raw frames through a csnet client: a
// frame that is not a JSON envelope must produce an error response, not
// a hang or a dropped connection.
func TestRPCMalformedPayload(t *testing.T) {
	_, addr := startMeanServer(t)
	cl, err := csnet.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	body, err := cl.SendFrame([]byte("{not json")).Wait()
	if err != nil {
		t.Fatalf("no response to malformed payload: %v", err)
	}
	if !strings.Contains(string(body), "malformed request") {
		t.Errorf("response = %s, want a malformed-request error", body)
	}
	// Same connection still serves well-formed calls afterwards.
	body, err = cl.SendFrame([]byte(`{"method":"stats.mean","args":[2,4]}`)).Wait()
	if err != nil || !strings.Contains(string(body), "3") {
		t.Errorf("follow-up call = %s, %v; want result 3", body, err)
	}
}

func TestRPCConcurrentClients(t *testing.T) {
	_, addr := startMeanServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := DialRPC(addr, 2*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < 25; i++ {
				x := float64(g*100 + i)
				var mean float64
				if err := cl.Call("stats.mean", []float64{x, x + 2}, &mean); err != nil {
					t.Error(err)
					return
				}
				if mean != x+1 {
					t.Errorf("mean = %g, want %g", mean, x+1)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRPCStartAfterShutdown(t *testing.T) {
	srv := NewRPCServer()
	srv.Shutdown()
	if _, err := srv.Start("127.0.0.1:0"); err == nil {
		t.Error("Start after Shutdown should fail")
	}
}

// TestRPCGoPipelined fires a burst of async calls before collecting
// any reply: each must decode to its own result, and concurrent
// callers must not see each other's replies (the calls share one
// multiplexed connection).
func TestRPCGoPipelined(t *testing.T) {
	_, addr := startMeanServer(t)
	cl, err := DialRPC(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const depth = 32
	calls := make([]*RPCCall, depth)
	for i := range calls {
		calls[i] = cl.Go("stats.mean", []float64{float64(i), float64(i + 2)})
	}
	for i, call := range calls {
		var mean float64
		if err := call.Done(&mean); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if want := float64(i + 1); mean != want {
			t.Fatalf("call %d mean = %g, want %g (cross-talk?)", i, mean, want)
		}
	}

	// A remote failure in the batch surfaces on its own call only.
	good := cl.Go("stats.mean", []float64{4, 6})
	bad := cl.Go("fail", nil)
	var mean float64
	if err := good.Done(&mean); err != nil || mean != 5 {
		t.Fatalf("good call after bad = %g %v", mean, err)
	}
	var remote *RemoteError
	if err := bad.Done(nil); !errors.As(err, &remote) {
		t.Fatalf("bad call error = %v, want RemoteError", err)
	}
}
