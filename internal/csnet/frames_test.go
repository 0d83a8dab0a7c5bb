package csnet

import (
	"bytes"
	"testing"
	"time"
)

// TestFrameServerCustomProtocol exercises the frame layer directly: a
// non-KV protocol served by NewFrameServer and driven with SendFrame.
func TestFrameServerCustomProtocol(t *testing.T) {
	srv := NewFrameServer(frameFunc(func(body []byte) []byte {
		return bytes.ToUpper(body)
	}), 0)
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
	for _, in := range []string{"hello", "", "MiXeD"} {
		got, err := cl.SendFrame([]byte(in)).Wait()
		if err != nil {
			t.Fatalf("SendFrame(%q): %v", in, err)
		}
		if want := bytes.ToUpper([]byte(in)); !bytes.Equal(got, want) {
			t.Errorf("SendFrame(%q) = %q, want %q", in, got, want)
		}
	}
}

// frameFunc adapts a function to FrameHandler for tests: whatever it
// returns is appended to dst.
type frameFunc func([]byte) []byte

func (f frameFunc) ServeFrame(dst, body []byte, _ FrameMeta) []byte { return append(dst, f(body)...) }
