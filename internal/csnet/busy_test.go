package csnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateHandler blocks every op on a channel so tests can hold handler
// slots occupied deterministically.
func gateHandler(gate <-chan struct{}) Handler {
	return HandlerFunc(func(r Request) Response {
		<-gate
		return Response{Status: StatusOK, Value: r.Value}
	})
}

// TestAdmissionShedsBusy pins the shed contract: with an in-flight
// budget enabled and every handler slot blocked, excess muxed frames
// are answered StatusBusy immediately (never dropped, never queued
// forever), and the server recovers once the handlers drain.
func TestAdmissionShedsBusy(t *testing.T) {
	gate := make(chan struct{})
	srv := NewServer(gateHandler(gate), 16)
	srv.SetAdmission(2, 4)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 32
	calls := make([]*Call, n)
	for i := range calls {
		calls[i] = c.Send(Request{Op: OpEcho, Value: []byte{byte(i)}})
	}
	// Give the admitted frames time to occupy the budget, then let
	// them finish; the rest must already have been shed.
	time.Sleep(50 * time.Millisecond)
	close(gate)

	var ok, busy int
	for i, call := range calls {
		resp, err := call.Response()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		switch resp.Status {
		case StatusOK:
			ok++
		case StatusBusy:
			busy++
		default:
			t.Fatalf("call %d: status %v", i, resp.Status)
		}
	}
	if ok == 0 || busy == 0 || ok+busy != n {
		t.Fatalf("ok=%d busy=%d, want both nonzero summing to %d", ok, busy, n)
	}
	// Budget released: the server serves again without sheds.
	if resp, err := c.Do(Request{Op: OpEcho, Value: []byte("x")}); err != nil || resp.Status != StatusOK {
		t.Fatalf("post-drain echo = %+v, %v", resp, err)
	}
}

// TestAdmissionDefaultOff pins legacy interop: a server that never
// called SetAdmission admits everything, so a pre-busy peer can never
// see the new status byte no matter the offered concurrency.
func TestAdmissionDefaultOff(t *testing.T) {
	srv := NewServer(NewKVHandler(), 8)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 256
	calls := make([]*Call, n)
	for i := range calls {
		calls[i] = c.Send(Request{Op: OpSetV, Key: fmt.Sprintf("k%d", i%7), Value: []byte("v")})
	}
	for i, call := range calls {
		resp, err := call.ResponseV()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp.Status == StatusBusy {
			t.Fatalf("call %d: default-configured server emitted BUSY", i)
		}
	}
}

// TestIsBusyPredicate checks the typed-error mapping: helper methods
// surface a shed reply as ErrBusy, distinguishable from other errors.
func TestIsBusyPredicate(t *testing.T) {
	srv := NewServer(HandlerFunc(func(Request) Response {
		return Response{Status: StatusBusy}
	}), 4)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.GetV("k"); !IsBusy(err) {
		t.Fatalf("GetV err = %v, want IsBusy", err)
	}
	if _, _, err := c.SetV("k", []byte("v"), 1); !IsBusy(err) {
		t.Fatalf("SetV err = %v, want IsBusy", err)
	}
	if resp, err := c.Send(Request{Op: OpDelV, Key: "k", Version: 1}).ResponseV(); err != nil || resp.Status != StatusBusy {
		t.Fatalf("DelV = %+v %v, want StatusBusy", resp, err)
	}
	if IsBusy(nil) {
		t.Error("IsBusy(nil)")
	}
	if IsBusy(errors.New("other")) {
		t.Error("IsBusy(other)")
	}
}

// TestQueueDepthShed exercises the queue-bound (not budget-bound)
// shed path: shedQueue alone, all workers blocked, overflow frames
// answered BUSY instead of backing up the reader.
func TestQueueDepthShed(t *testing.T) {
	gate := make(chan struct{})
	srv := NewServer(gateHandler(gate), 16)
	srv.SetAdmission(1, 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 64
	calls := make([]*Call, n)
	for i := range calls {
		calls[i] = c.Send(Request{Op: OpEcho, Value: []byte{byte(i)}})
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)

	var wg sync.WaitGroup
	var busy atomic.Int64
	for i, call := range calls {
		wg.Add(1)
		go func(i int, call *Call) {
			defer wg.Done()
			resp, err := call.Response()
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if resp.Status == StatusBusy {
				busy.Add(1)
			}
		}(i, call)
	}
	wg.Wait()
	if busy.Load() == 0 {
		t.Fatal("no frames shed despite saturated 1-deep queue")
	}
}
