package csnet

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"pdcedu/internal/trace"
)

// goldenFrame is one named wire frame: header and body exactly as they
// leave a connection.
type goldenFrame struct {
	name  string
	bytes []byte
}

// goldenSeq is the sequence number every golden muxed frame carries.
const goldenSeq = 0x0102030405060708

// goldenFrames builds one muxed frame per op and direction, plus the
// trailer variants (expiry, trace, both). testdata/golden_frames.txt
// holds what this table produced at the commit before the transport
// took ownership of its buffers (PR 16, d803717) — and, for the batch
// envelope and the purge, at the commits that introduced them; the
// encoders may change how they build a frame, never a byte of it.
// Retired op bytes have no frames left to pin.
func goldenFrames(t testing.TB) []goldenFrame {
	var out []goldenFrame
	add := func(name string, body []byte) {
		muxed := make([]byte, muxHeaderSize, muxHeaderSize+len(body))
		putMuxHeader(muxed, goldenSeq, len(body))
		out = append(out, goldenFrame{name + "/muxed", append(muxed, body...)})
	}
	request := func(name string, r Request) {
		body, err := EncodeRequest(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		add(name, body)
	}
	response := func(name string, op Op, r Response) {
		if Versioned(op) {
			add(name, EncodeResponseV(r))
		} else {
			add(name, EncodeResponse(r))
		}
	}
	const expiry = 1_700_000_000_123_456_789
	tr := trace.Context{TraceID: 0xA1A2A3A4A5A6A7A8, SpanID: 0xB1B2B3B4B5B6B7B8, Flags: trace.FlagSampled}
	for op := OpPing; op <= OpTraces; op++ {
		if op.String() == "UNKNOWN" { // a retired byte
			continue
		}
		request("req/"+op.String(), Request{Op: op, Key: "key-1", Value: []byte("value"), Version: 0x1122334455667788, Flags: FlagTombstone})
		response("resp/"+op.String(), op, Response{Status: StatusOK, Value: []byte("value"), Version: 0x1122334455667788, Flags: FlagTombstone})
	}
	request("req/SETV+expiry", Request{Op: OpSetV, Key: "key-1", Value: []byte("value"), Version: 7, ExpireAt: expiry})
	request("req/SETV+trace", Request{Op: OpSetV, Key: "key-1", Value: []byte("value"), Version: 7, Trace: tr})
	request("req/MERGE+expiry+trace", Request{Op: OpMerge, Key: "key-1", Version: 7, Flags: FlagTombstone, ExpireAt: expiry, Trace: tr})
	request("req/PING+empty", Request{Op: OpPing})
	response("resp/GETV+expiry", OpGetV, Response{Status: StatusOK, Value: []byte("value"), Version: 7, ExpireAt: expiry})
	response("resp/GETV+tombstone-miss", OpGetV, Response{Status: StatusNotFound, Version: 7, Flags: FlagTombstone})
	response("resp/SETV+busy", OpSetV, Response{Status: StatusBusy})
	response("resp/PING+busy", OpPing, Response{Status: StatusBusy})
	response("resp/ECHO+error", OpEcho, Response{Status: StatusError, Value: []byte("boom")})
	// The batch envelope, added with OpBatch and pinned from then on: two
	// entries and their replies, each reply in its own entry's framing,
	// and the refusal a peer without the op sends back.
	setv, _ := EncodeRequest(Request{Op: OpSetV, Key: "key-1", Value: []byte("value"), Version: 7, Trace: tr})
	merge, _ := EncodeRequest(Request{Op: OpMerge, Key: "key-2", Version: 8, Flags: FlagTombstone, ExpireAt: expiry})
	request("req/BATCH", Request{Op: OpBatch, Value: AppendBatchItem(AppendBatchItem(AppendBatchHeader(nil, 2), setv), merge)})
	response("resp/BATCH", OpBatch, Response{Status: StatusOK, Value: AppendBatchItem(AppendBatchItem(AppendBatchHeader(nil, 2),
		EncodeResponseV(Response{Status: StatusOK, Version: 7})),
		EncodeResponseV(Response{Status: StatusExists, Version: 9, Flags: FlagTombstone, ExpireAt: expiry}))})
	response("resp/BATCH+unknown-op", OpBatch, Response{Status: StatusError, Value: []byte("unknown op 18")})
	// The version-bounded purge, pinned from the commit that added it: a
	// request, and the reply that kept a newer entry.
	request("req/PURGEV", Request{Op: OpPurgeV, Key: "key-1", Version: 7})
	response("resp/PURGEV", OpPurgeV, Response{Status: StatusExists, Version: 9})
	return out
}

// TestGoldenFrames pins the wire: every frame this build produces is
// byte-identical to the one the pre-change build produced, so a peer on
// either side of the change interoperates and bytes_in/out per op
// cannot have moved.
func TestGoldenFrames(t *testing.T) {
	f, err := os.Open("testdata/golden_frames.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexBytes, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = hexBytes
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	frames := goldenFrames(t)
	if len(frames) != len(want) {
		t.Errorf("table builds %d frames, golden file holds %d", len(frames), len(want))
	}
	for _, fr := range frames {
		if got := hex.EncodeToString(fr.bytes); got != want[fr.name] {
			t.Errorf("%s:\n got  %s\n want %s", fr.name, got, want[fr.name])
		}
	}
}

// TestAppendMatchesEncode holds the append path to the same bytes when
// dst is dirty and non-empty: the prefix survives, and what follows it
// is exactly the frame Encode* builds.
func TestAppendMatchesEncode(t *testing.T) {
	tr := trace.Context{TraceID: 9, SpanID: 8, Flags: trace.FlagSampled}
	for op := OpPing; op <= OpPurgeV; op++ {
		req := Request{Op: op, Key: "k", Value: bytes.Repeat([]byte{byte(op)}, 100), Version: 5, ExpireAt: 77, Trace: tr}
		want, err := EncodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendRequest(dirtyDst(), req)
		checkAppended(t, fmt.Sprint("request ", op), got, err, dirtyDst(), want)

		resp := Response{Status: StatusOK, Value: req.Value, Version: 5, ExpireAt: 77}
		checkAppended(t, fmt.Sprint("response ", op), AppendResponse(dirtyDst(), resp), nil, dirtyDst(), EncodeResponse(resp))
		checkAppended(t, fmt.Sprint("responseV ", op), AppendResponseV(dirtyDst(), resp), nil, dirtyDst(), EncodeResponseV(resp))
	}
	long := Request{Op: OpGetV, Key: string(make([]byte, 70000))}
	if got, err := AppendRequest(dirtyDst(), long); err == nil || !bytes.Equal(got, dirtyDst()) {
		t.Errorf("oversized key: dst = %q, err = %v; want dst untouched and an error", got, err)
	}
}

// checkAppended asserts got == prefix + want.
func checkAppended(t testing.TB, what string, got []byte, err error, prefix, want []byte) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("%s: append clobbered dst's prefix: %x", what, got[:min(len(got), len(prefix))])
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%s: appended %x, want %x", what, got[len(prefix):], want)
	}
}
