package csnet

import (
	"bytes"
	"testing"
	"time"
)

func TestClientSetNX(t *testing.T) {
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

	stored, err := cl.SetNX("k", []byte("v1"))
	if err != nil || !stored {
		t.Fatalf("SetNX on absent key = %v %v, want stored", stored, err)
	}
	stored, err = cl.SetNX("k", []byte("v2"))
	if err != nil || stored {
		t.Fatalf("SetNX on existing key = %v %v, want unchanged", stored, err)
	}
	v, ok, err := cl.Get("k")
	if err != nil || !ok || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("Get after losing SetNX = %q %v %v, want original v1", v, ok, err)
	}
}

// TestFrameServerCustomProtocol exercises the frame layer directly: a
// non-KV protocol served by NewFrameServer and driven with RoundTrip.
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
		got, err := cl.RoundTrip([]byte(in))
		if err != nil {
			t.Fatalf("RoundTrip(%q): %v", in, err)
		}
		if want := bytes.ToUpper([]byte(in)); !bytes.Equal(got, want) {
			t.Errorf("RoundTrip(%q) = %q, want %q", in, got, want)
		}
	}
}

// frameFunc adapts a function to FrameHandler for tests: whatever it
// returns is appended to dst.
type frameFunc func([]byte) []byte

func (f frameFunc) ServeFrame(dst, body []byte, _ FrameMeta) []byte { return append(dst, f(body)...) }

// TestDecodeKeysMalformedCount rejects a key-list whose count field
// promises more entries than the body could hold, instead of
// attempting a giant allocation.
func TestDecodeKeysMalformedCount(t *testing.T) {
	if _, err := DecodeKeys([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("DecodeKeys accepted a 4-billion-entry count in an empty body")
	}
	body, err := EncodeKeys([]string{"a", "bc"})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := DecodeKeys(body)
	if err != nil || len(keys) != 2 || keys[0] != "a" || keys[1] != "bc" {
		t.Fatalf("round trip = %v, %v", keys, err)
	}
}
