package member

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// message, encodeMessage and decodeMessage are the reference codec:
// the one production used to run, each message built and read whole,
// every string copied. The production encoder (appendHeader,
// appendUpdate) must emit its bytes exactly, and the production
// decoder (parseMessage, then Memberlist.apply) accept and reject
// exactly what it does and leave the table as the reference path does.

// message is one decoded SWIM protocol message. Every message
// piggybacks Updates — dissemination rides on probe traffic.
type message struct {
	Kind    msgKind
	From    string // sender's member ID
	Target  string // msgPingReq only: who to probe
	Updates []Update
}

// minUpdateSize is the least an update costs its message: state,
// incarnation and an empty id's length.
const minUpdateSize = 1 + 8 + 2

func refAppendString16(b []byte, s string) ([]byte, error) {
	if len(s) > 0xFFFF {
		return nil, fmt.Errorf("member: string length %d exceeds 65535", len(s))
	}
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(s)))
	b = append(b, l[:]...)
	return append(b, s...), nil
}

func refReadString16(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("member: truncated string length")
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, fmt.Errorf("member: truncated string body")
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

// encodeMessage serializes a message:
// kind(1) from(str16) target(str16) count(2) then count * update,
// update = state(1) incarnation(8) id(str16).
func encodeMessage(m message) ([]byte, error) {
	if len(m.Updates) > 0xFFFF {
		return nil, fmt.Errorf("member: %d piggybacked updates exceed 65535", len(m.Updates))
	}
	buf := []byte{byte(m.Kind)}
	var err error
	if buf, err = refAppendString16(buf, m.From); err != nil {
		return nil, err
	}
	if buf, err = refAppendString16(buf, m.Target); err != nil {
		return nil, err
	}
	var c [2]byte
	binary.BigEndian.PutUint16(c[:], uint16(len(m.Updates)))
	buf = append(buf, c[:]...)
	var inc [8]byte
	for _, u := range m.Updates {
		buf = append(buf, byte(u.State))
		binary.BigEndian.PutUint64(inc[:], u.Incarnation)
		buf = append(buf, inc[:]...)
		if buf, err = refAppendString16(buf, u.ID); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// decodeMessage parses a serialized message.
func decodeMessage(b []byte) (message, error) {
	var m message
	if len(b) < 1 {
		return m, fmt.Errorf("member: empty message")
	}
	m.Kind = msgKind(b[0])
	if m.Kind < msgPing || m.Kind > msgSyncAck {
		return m, fmt.Errorf("member: unknown message kind %d", b[0])
	}
	b = b[1:]
	var err error
	if m.From, b, err = refReadString16(b); err != nil {
		return m, err
	}
	if m.Target, b, err = refReadString16(b); err != nil {
		return m, err
	}
	if len(b) < 2 {
		return m, fmt.Errorf("member: truncated update count")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if n > len(b)/minUpdateSize {
		return m, fmt.Errorf("member: %d updates overrun a %d-byte body", n, len(b))
	}
	if n > 0 {
		m.Updates = make([]Update, 0, n)
	}
	for i := 0; i < n; i++ {
		if len(b) < 9 {
			return m, fmt.Errorf("member: truncated update %d", i)
		}
		u := Update{State: State(b[0]), Incarnation: binary.BigEndian.Uint64(b[1:9])}
		if u.State < StateAlive || u.State > StateDead {
			return m, fmt.Errorf("member: unknown state %d in update %d", b[0], i)
		}
		b = b[9:]
		if u.ID, b, err = refReadString16(b); err != nil {
			return m, err
		}
		m.Updates = append(m.Updates, u)
	}
	if len(b) != 0 {
		return m, fmt.Errorf("member: %d trailing bytes", len(b))
	}
	return m, nil
}

// refApply is the reference path's merge: the sender introduced alive
// at incarnation 0 when unknown, then every update applied in order.
func refApply(m *Memberlist, msg message) {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if msg.From != "" && msg.From != m.cfg.ID {
		if _, known := m.tbl.state(msg.From); !known {
			m.tbl.apply(Update{ID: msg.From, State: StateAlive, Incarnation: 0}, now)
		}
	}
	for _, u := range msg.Updates {
		m.tbl.apply(u, now)
	}
}

// encode is the production encoder over a whole message.
func encode(m message) []byte {
	b := appendHeader(nil, m.Kind, m.From, m.Target, len(m.Updates))
	for _, u := range m.Updates {
		b = appendUpdate(b, u.ID, u.State, u.Incarnation)
	}
	return b
}

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
// never a panic; parseMessage accepts exactly what the reference
// decoder does, reads the same fields and leaves the same table state
// (decodeBoth); no more updates are allocated for than the input has
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
		m, ok := decodeBoth(t, in)
		if !ok {
			return
		}
		if cap(m.Updates) > len(in)/minUpdateSize {
			t.Fatalf("room for %d updates from a %d-byte message", cap(m.Updates), len(in))
		}
		if out := encode(m); !bytes.Equal(out, in) {
			t.Fatalf("re-encoded %x; want %x", out, in)
		}
	})
}

// warmList returns a memberlist "n0" that knows n1 alive, n2 suspect
// and n3 dead, with their transitions queued for gossip.
func warmList(t testing.TB) *Memberlist {
	t.Helper()
	ml, err := New(Config{ID: "n0"})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	ml.tbl.apply(Update{ID: "n1", State: StateAlive, Incarnation: 1}, now)
	ml.tbl.apply(Update{ID: "n2", State: StateSuspect, Incarnation: 2}, now)
	ml.tbl.apply(Update{ID: "n3", State: StateDead, Incarnation: 1}, now)
	return ml
}

// decodeBoth reads in through the reference path (decodeMessage, then
// refApply) into one warm memberlist and through production's
// (parseMessage, then apply) into another. It fails t unless both
// reject in, or both accept it, read the same fields and leave the
// same table rows and gossip queue; it returns the reference's message
// and whether in was accepted.
func decodeBoth(t *testing.T, in []byte) (message, bool) {
	t.Helper()
	want, werr := decodeMessage(in)
	got, gerr := parseMessage(in)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("reference decoder: %v; parseMessage: %v; on %x", werr, gerr, in)
	}
	if werr != nil {
		return want, false
	}
	if got.kind != want.Kind || string(got.from) != want.From || string(got.target) != want.Target || got.count != len(want.Updates) {
		t.Fatalf("parsed kind %d from %q target %q count %d; reference %d %q %q %d",
			got.kind, got.from, got.target, got.count, want.Kind, want.From, want.Target, len(want.Updates))
	}
	walk := got
	for i, u := range want.Updates {
		if id, st, inc := walk.next(); string(id) != u.ID || st != u.State || inc != u.Incarnation {
			t.Fatalf("update %d parsed as %q %v %d; reference %+v", i, id, st, inc, u)
		}
	}
	ref, prod := warmList(t), warmList(t)
	refApply(ref, want)
	prod.mu.Lock()
	prod.apply(got)
	prod.mu.Unlock()
	if r, p := ref.Members(), prod.Members(); !reflect.DeepEqual(r, p) {
		t.Fatalf("table after the reference path %+v; after parseMessage %+v", r, p)
	}
	if !reflect.DeepEqual(ref.bq.items, prod.bq.items) {
		t.Fatalf("gossip queue after the reference path %+v; after parseMessage %+v", ref.bq.items, prod.bq.items)
	}
	return want, true
}

// randID returns an ID of n bytes, most of them printable.
func randID(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// randMessage returns a message of the given kind carrying count
// updates, whose IDs are drawn from ids.
func randMessage(rng *rand.Rand, kind msgKind, from, target string, count int, ids []string) message {
	m := message{Kind: kind, From: from, Target: target}
	for i := 0; i < count; i++ {
		m.Updates = append(m.Updates, Update{
			ID:          ids[rng.Intn(len(ids))],
			State:       State(1 + rng.Intn(3)),
			Incarnation: []uint64{0, 1, 2, 3, rng.Uint64(), 1<<64 - 1}[rng.Intn(6)],
		})
	}
	return m
}

// TestWireEncoderMatchesReference: the production encoder emits the
// reference encoder's bytes for every kind, IDs from empty to the
// 65535-byte limit and 0 up to the 65535-update limit — the wire is
// what it was, so nodes of either build talk to each other.
func TestWireEncoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	long := randID(rng, maxField)
	for kind := msgPing; kind <= msgSyncAck; kind++ {
		for _, idLen := range []int{0, 1, 14, 300, maxField} {
			id := long[:idLen]
			ids := []string{id, "", "n1", randID(rng, 1+rng.Intn(40))}
			counts := []int{0, 1, 8, 300, maxField}
			if idLen == maxField {
				counts = []int{0, 1, 2}
			}
			for _, count := range counts {
				m := randMessage(rng, kind, id, ids[rng.Intn(len(ids))], count, ids)
				want, err := encodeMessage(m)
				if err != nil {
					t.Fatal(err)
				}
				if got := encode(m); !bytes.Equal(got, want) {
					t.Fatalf("kind %d, %d-byte IDs, %d updates: %d bytes differ from the reference's %d", kind, idLen, count, len(got), len(want))
				}
			}
		}
	}

	// What a node sends: a sync (and its ack) is every row, self
	// included; anything else the piggyback queue's next updates.
	ml := warmList(t)
	rows := ml.Members()
	sync := message{Kind: msgSync, From: "n0"}
	for _, r := range rows {
		sync.Updates = append(sync.Updates, Update{ID: r.ID, State: r.State, Incarnation: r.Incarnation})
	}
	want, _ := encodeMessage(sync)
	if got := ml.encode(nil, msgSync, ""); !bytes.Equal(got, want) {
		t.Fatalf("sync %x; reference %x", got, want)
	}
	ack := message{Kind: msgAck, From: "n0"}
	for _, it := range ml.bq.items {
		ack.Updates = append(ack.Updates, it.u)
	}
	want, _ = encodeMessage(ack)
	if got := ml.encode(nil, msgAck, ""); !bytes.Equal(got, want) {
		t.Fatalf("ack %x; reference %x", got, want)
	}
}

// TestWireDecoderMatchesReference: parseMessage and apply accept and
// reject exactly what the reference decoder does and leave the table
// as the reference path does, over random messages about known,
// unknown, dead and local members, every truncation of each, byte
// flips and trailing bytes, and the 65535-update limit.
func TestWireDecoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	ids := []string{"n0", "n1", "n2", "n3", "stranger", ""}
	var inputs [][]byte
	for i := 0; i < 200; i++ {
		kind := msgKind(1 + rng.Intn(6))
		m := randMessage(rng, kind, ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], rng.Intn(10), ids)
		b := encode(m)
		inputs = append(inputs, b, append(slices.Clone(b), byte(rng.Intn(256))))
		for cut := 0; cut < len(b); cut++ {
			inputs = append(inputs, b[:cut])
		}
		for k := 0; k < 4; k++ {
			flip := slices.Clone(b)
			flip[rng.Intn(len(flip))] ^= byte(1 + rng.Intn(255))
			inputs = append(inputs, flip)
		}
	}
	inputs = append(inputs,
		encode(randMessage(rng, msgSync, "n1", "", maxField, ids)),
		[]byte{byte(msgPing), 0, 0, 0, 0, 0xFF, 0xFF},
		[]byte{0}, []byte{99}, nil)
	accepted := 0
	for _, in := range inputs {
		if _, ok := decodeBoth(t, in); ok {
			accepted++
		}
	}
	if accepted < 400 || accepted == len(inputs) {
		t.Fatalf("%d of %d inputs accepted: the corpus does not exercise both sides", accepted, len(inputs))
	}
}

// TestNewSenderOwnsItsID: a sender never heard of is recorded alive at
// incarnation 0, and no ID the memberlist keeps — its table rows, its
// gossip queue, its subscribers' events — aliases the message it came
// in: overwriting the message afterwards changes none of them.
func TestNewSenderOwnsItsID(t *testing.T) {
	ml, err := New(Config{ID: "n0"})
	if err != nil {
		t.Fatal(err)
	}
	events := ml.Subscribe()
	msg := encode(message{Kind: msgPing, From: "stranger", Updates: []Update{
		{ID: "gossiped", State: StateSuspect, Incarnation: 3},
	}})
	if _, err := ml.HandleMessage(msg); err != nil {
		t.Fatal(err)
	}
	want := []Member{
		{ID: "gossiped", State: StateSuspect, Incarnation: 3},
		{ID: "n0", State: StateAlive, Incarnation: 1},
		{ID: "stranger", State: StateAlive, Incarnation: 0},
	}
	if got := ml.Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("members %+v, want %+v", got, want)
	}
	for i := range msg {
		msg[i] = 0xAA
	}
	if got := ml.Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("members after the message was overwritten %+v, want %+v", got, want)
	}
	var queued []string
	for _, it := range ml.bq.items {
		queued = append(queued, it.u.ID)
	}
	if want := []string{"stranger", "gossiped"}; !reflect.DeepEqual(queued, want) {
		t.Fatalf("gossip queue after the message was overwritten %q, want %q", queued, want)
	}
	for _, want := range []string{"stranger", "gossiped"} {
		if ev := <-events; ev.ID != want {
			t.Fatalf("event for %q, want %q", ev.ID, want)
		}
	}
}
