package csnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
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
// trace trailer variant. testdata/golden_frames.txt
// holds what this table produced at the commit before the transport
// took ownership of its buffers (PR 16, d803717) — and, for the batch
// envelope and the purge, at the commits that introduced them; the
// encoders may change how they build a frame, never a byte of it.
// Retired op bytes and the retired expiry trailer have no frames left
// to pin, except inside the batch envelope's (see withRetiredExpiry).
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
	tr := trace.Context{TraceID: 0xA1A2A3A4A5A6A7A8, SpanID: 0xB1B2B3B4B5B6B7B8, Flags: trace.FlagSampled}
	for op := OpPing; op <= OpTraces; op++ {
		if op.String() == "UNKNOWN" { // a retired byte
			continue
		}
		request("req/"+op.String(), Request{Op: op, Key: "key-1", Value: []byte("value"), Version: 0x1122334455667788, Flags: FlagTombstone})
		response("resp/"+op.String(), op, Response{Status: StatusOK, Value: []byte("value"), Version: 0x1122334455667788, Flags: FlagTombstone})
	}
	request("req/SETV+trace", Request{Op: OpSetV, Key: "key-1", Value: []byte("value"), Version: 7, Trace: tr})
	request("req/PING+empty", Request{Op: OpPing})
	response("resp/GETV+tombstone-miss", OpGetV, Response{Status: StatusNotFound, Version: 7, Flags: FlagTombstone})
	response("resp/SETV+busy", OpSetV, Response{Status: StatusBusy})
	response("resp/PING+busy", OpPing, Response{Status: StatusBusy})
	response("resp/ECHO+error", OpEcho, Response{Status: StatusError, Value: []byte("boom")})
	// The batch envelope, added with OpBatch and pinned from then on: two
	// entries and their replies, each reply in its own entry's framing,
	// and the refusal a peer without the op sends back. The envelope
	// does not read its items, and its second item each way was laid
	// down with an expiry, so the pinned bytes keep it.
	setv, _ := EncodeRequest(Request{Op: OpSetV, Key: "key-1", Value: []byte("value"), Version: 7, Trace: tr})
	merge, _ := EncodeRequest(Request{Op: OpMerge, Key: "key-2", Version: 8, Flags: FlagTombstone})
	request("req/BATCH", Request{Op: OpBatch, Value: AppendBatchItem(AppendBatchItem(AppendBatchHeader(nil, 2), setv), withRetiredExpiry(merge))})
	response("resp/BATCH", OpBatch, Response{Status: StatusOK, Value: AppendBatchItem(AppendBatchItem(AppendBatchHeader(nil, 2),
		EncodeResponseV(Response{Status: StatusOK, Version: 7})),
		withRetiredExpiry(EncodeResponseV(Response{Status: StatusExists, Version: 9, Flags: FlagTombstone})))})
	response("resp/BATCH+unknown-op", OpBatch, Response{Status: StatusError, Value: []byte("unknown op 18")})
	// The version-bounded purge, pinned from the commit that added it: a
	// request, and the reply that kept a newer entry.
	request("req/PURGEV", Request{Op: OpPurgeV, Key: "key-1", Version: 7})
	response("resp/PURGEV", OpPurgeV, Response{Status: StatusExists, Version: 9})
	return out
}

// retiredExpiry is the expiry the golden frames that carried one were
// built with.
const retiredExpiry = 1_700_000_000_123_456_789

// withRetiredExpiry adds to an untraced versioned frame what an expiry
// once did: the reserved flag bit 1, and the 8-byte expiry after the
// flags byte.
func withRetiredExpiry(frame []byte) []byte {
	frame[len(frame)-1] |= flagRetiredExpiry
	return binary.BigEndian.AppendUint64(frame, retiredExpiry)
}

// TestRetiredExpiryBitIsRefused: a versioned request, a versioned
// response or a listing entry that sets the reserved expiry bit is
// refused as malformed — the bytes of the retired "+expiry" golden
// frames included — instead of being read as some other trailer.
func TestRetiredExpiryBitIsRefused(t *testing.T) {
	tr := trace.Context{TraceID: 0xA1A2A3A4A5A6A7A8, SpanID: 0xB1B2B3B4B5B6B7B8, Flags: trace.FlagSampled}
	setv, _ := EncodeRequest(Request{Op: OpSetV, Key: "key-1", Value: []byte("value"), Version: 7})
	setv = withRetiredExpiry(setv)
	traced, _ := EncodeRequest(Request{Op: OpMerge, Key: "key-1", Version: 7, Flags: FlagTombstone, Trace: tr})
	traced[len(traced)-traceTrailerSize-1] |= flagRetiredExpiry // the bit alone, no expiry field
	for name, b := range map[string][]byte{"SETV+expiry": setv, "MERGE+bit+trace": traced} {
		if r, err := DecodeRequest(b); err == nil {
			t.Errorf("DecodeRequest(%s) = %+v, want an error", name, r)
		}
	}
	// On the wire, the server answers such a frame StatusError and
	// writes nothing.
	kv := NewKVHandler()
	if resp, err := DecodeResponseV(protocolFrames{kv}.ServeFrame(nil, setv, FrameMeta{})); err != nil || resp.Status != StatusError {
		t.Errorf("served SETV+expiry = %+v %v, want StatusError", resp, err)
	}
	if _, e, ok := kv.Engine().AppendLoad(nil, "key-1"); ok {
		t.Errorf("refused SETV+expiry stored %+v", e)
	}
	// Each decoder meets the frame an expiry once made and the bit
	// alone, which would otherwise decode.
	getv := EncodeResponseV(Response{Status: StatusOK, Value: []byte("value"), Version: 7})
	getv[len(getv)-1] |= flagRetiredExpiry
	for name, b := range map[string][]byte{"GETV+bit": getv, "GETV+expiry": binary.BigEndian.AppendUint64(getv, retiredExpiry)} {
		if r, err := DecodeResponseV(b); err == nil {
			t.Errorf("DecodeResponseV(%s) = %+v, want an error", name, r)
		}
	}
	listing, _ := EncodeRangeV([]KeyDigest{{Key: "live", Version: 3, Digest: 5}, {Key: "gone", Version: 9, Tombstone: true}})
	listing[len(listing)-1] |= flagRetiredExpiry
	for name, b := range map[string][]byte{"entry+bit": listing, "entry+expiry": binary.BigEndian.AppendUint64(listing, retiredExpiry)} {
		if entries, err := DecodeRangeV(b); err == nil {
			t.Errorf("DecodeRangeV(%s) = %+v, want an error", name, entries)
		}
	}
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
		req := Request{Op: op, Key: "k", Value: bytes.Repeat([]byte{byte(op)}, 100), Version: 5, Trace: tr}
		want, err := EncodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendRequest(dirtyDst(), req)
		checkAppended(t, fmt.Sprint("request ", op), got, err, dirtyDst(), want)

		resp := Response{Status: StatusOK, Value: req.Value, Version: 5}
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
