package member

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestMemberWireRoundTrip encodes and decodes every message shape the
// protocol produces.
func TestMemberWireRoundTrip(t *testing.T) {
	cases := []message{
		{Kind: msgPing, From: "127.0.0.1:9001"},
		{Kind: msgAck, From: "n2", Updates: []Update{
			{ID: "n1", State: StateAlive, Incarnation: 1},
			{ID: "n3", State: StateSuspect, Incarnation: 42},
			{ID: "n4", State: StateDead, Incarnation: 1<<63 + 5},
		}},
		{Kind: msgPingReq, From: "n1", Target: "n3"},
		{Kind: msgNack, From: "n3"},
		{Kind: msgSync, From: "n5", Updates: []Update{{ID: "n5", State: StateAlive, Incarnation: 1}}},
		{Kind: msgSyncAck, From: ""},
	}
	for _, want := range cases {
		b, err := encodeMessage(want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := decodeMessage(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

// TestMemberWireErrors feeds the decoder malformed inputs; every one
// must fail loudly rather than mis-parse.
func TestMemberWireErrors(t *testing.T) {
	good, err := encodeMessage(message{Kind: msgAck, From: "n1", Updates: []Update{
		{ID: "n2", State: StateAlive, Incarnation: 9},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":             {},
		"unknown kind zero": {0},
		"unknown kind high": {99},
		"truncated from":    {byte(msgPing), 0},
		"truncated body":    good[:len(good)-3],
		"trailing bytes":    append(append([]byte{}, good...), 0xAB),
		// 65 535 updates claimed by a 7-byte value: refused before the
		// decoder sizes a slice for them.
		"count overruns body": {byte(msgPing), 0, 0, 0, 0, 0xFF, 0xFF},
	}
	// A corrupt state byte inside an update.
	bad := append([]byte{}, good...)
	bad[len(bad)-13] = 77 // state byte of the single update
	cases["bad state"] = bad

	for name, b := range cases {
		if _, err := decodeMessage(b); err == nil {
			t.Errorf("%s: decode accepted %x", name, b)
		}
	}

	// Oversized fields are rejected at encode time.
	if _, err := encodeMessage(message{Kind: msgPing, From: strings.Repeat("x", 1<<16)}); err == nil {
		t.Error("encode accepted a 64KiB From")
	}
	if _, err := encodeMessage(message{Kind: msgPing, Updates: []Update{
		{ID: strings.Repeat("k", 1<<16), State: StateAlive},
	}}); err == nil {
		t.Error("encode accepted a 64KiB update ID")
	}
}

// FuzzDecodeMessage holds the gossip decoder to the contract of the
// csnet and store decoders: any input yields a message or an error,
// never a panic; no more updates are allocated for than the input has
// bytes to carry; and a message that decodes re-encodes to the input
// (the encoding is canonical). CI runs it with the other decoders.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range []message{
		{Kind: msgPing, From: "127.0.0.1:9001"},
		{Kind: msgPingReq, From: "n1", Target: "n3"},
		{Kind: msgAck, From: "n2", Updates: []Update{
			{ID: "n1", State: StateAlive, Incarnation: 1},
			{ID: "", State: StateDead, Incarnation: 1<<63 + 5},
		}},
	} {
		b, _ := encodeMessage(m)
		f.Add(b)
	}
	f.Add([]byte{byte(msgPing), 0, 0, 0, 0, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := decodeMessage(in)
		if err != nil {
			return
		}
		if cap(m.Updates) > len(in)/minUpdateSize {
			t.Fatalf("room for %d updates from a %d-byte message", cap(m.Updates), len(in))
		}
		out, err := encodeMessage(m)
		if err != nil || !bytes.Equal(out, in) {
			t.Fatalf("re-encoded %x, %v; want %x", out, err, in)
		}
	})
}
