package csnet

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"pdcedu/internal/trace"
)

// The socket decoders, fuzzed. Each target holds one decoder to the
// same three promises: any input yields a value or an error, never a
// panic; nothing is allocated that a length field has not paid for in
// input bytes; and whatever decodes re-encodes — through the append
// path, into a dirty non-empty dst, for the codecs that have one — to
// bytes that decode to the same value. A codec whose encoding is
// canonical must reproduce the input exactly.
//
// CI runs each for 20 s (.github/workflows/ci.yml, "fuzz decoders"); a
// crasher lands in testdata/fuzz and is committed as a regression seed.

// dirtyDst is a non-empty buffer with spare capacity, the shape of a
// recycled transport buffer mid-use.
func dirtyDst() []byte { return append(make([]byte, 0, 256), "\xDB\xDB\xDBdirty"...) }

func FuzzDecodeRequest(f *testing.F) {
	tr := trace.Context{TraceID: 7, SpanID: 9, Flags: trace.FlagSampled}
	for _, r := range []Request{
		{Op: OpPing},
		{Op: OpEcho, Key: "k", Value: []byte("v")},
		{Op: OpSetV, Key: "k", Value: []byte("v"), Version: 42},
		{Op: OpMerge, Key: "k", Version: 9, Flags: FlagTombstone},
		{Op: OpMerge, Key: "k", Value: []byte("traced"), Version: 11, Trace: tr},
		{Op: OpPurgeV, Key: "k", Version: 13},
	} {
		b, _ := EncodeRequest(r)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		r, err := DecodeRequest(in)
		if err != nil {
			return
		}
		if len(r.Key)+len(r.Value) > len(in) {
			t.Fatalf("decoded %d key + %d value bytes from a %d-byte frame", len(r.Key), len(r.Value), len(in))
		}
		// The key is the frame's key field, byte for byte.
		if field := in[3 : 3+binary.BigEndian.Uint16(in[1:])]; r.Key != string(field) {
			t.Fatalf("decoded key %x, frame's key field %x", r.Key, field)
		}
		out, err := AppendRequest(dirtyDst(), r)
		checkReencoded(t, out, err, in, Versioned(r.Op))
		if !r.Trace.Valid() {
			r.Trace = trace.Context{} // a flagged trace with ID 0 is no trace: it is not re-sent
		}
		again, err := DecodeRequest(out[len(dirtyDst()):])
		if err != nil || !reflect.DeepEqual(again, r) {
			t.Fatalf("re-decoded %+v %v, want %+v", again, err, r)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	f.Add(EncodeResponse(Response{Status: StatusOK, Value: []byte("v")}))
	f.Add(EncodeResponse(Response{Status: StatusBusy}))
	f.Add([]byte{1, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		r, err := DecodeResponse(in)
		if err != nil {
			return
		}
		checkReencoded(t, AppendResponse(dirtyDst(), r), nil, in, false)
	})
}

func FuzzDecodeResponseV(f *testing.F) {
	f.Add(EncodeResponseV(Response{Status: StatusOK, Value: []byte("v"), Version: 1234, Flags: FlagTombstone}))
	f.Add(EncodeResponseV(Response{Status: StatusExists, Version: 9}))
	f.Add(EncodeResponse(Response{Status: StatusOK, Value: []byte("v")}))
	f.Fuzz(func(t *testing.T, in []byte) {
		r, err := DecodeResponseV(in)
		if err != nil {
			return
		}
		out := AppendResponseV(dirtyDst(), r)
		checkReencoded(t, out, nil, in, true)
		again, err := DecodeResponseV(out[len(dirtyDst()):])
		if err != nil || !reflect.DeepEqual(again, r) {
			t.Fatalf("re-decoded %+v %v, want %+v", again, err, r)
		}
	})
}

// checkReencoded asserts out is dirtyDst followed by a re-encoding of
// in. A frame without a trailer is canonical and must come back byte
// for byte. A trailer is not — a set trace flag over a zero trace ID
// (a trace the decoder reports as absent) re-encodes without the
// extension — so there the bytes must match whenever the
// length does, and may only ever shrink.
func checkReencoded(t *testing.T, out []byte, err error, in []byte, trailer bool) {
	t.Helper()
	if err != nil {
		t.Fatalf("re-encode of a decoded value: %v", err)
	}
	if !bytes.HasPrefix(out, dirtyDst()) {
		t.Fatalf("append clobbered dst's prefix: %x", out)
	}
	out = out[len(dirtyDst()):]
	switch {
	case len(out) == len(in) && !bytes.Equal(out, in):
		t.Fatalf("re-encoded %x, input %x", out, in)
	case len(out) != len(in) && !trailer:
		t.Fatalf("canonical frame re-encoded to %d bytes from %d", len(out), len(in))
	case len(out) > len(in):
		t.Fatalf("re-encoding grew the frame: %d bytes from %d", len(out), len(in))
	}
}

func FuzzDecodeBucketList(f *testing.F) {
	f.Add(EncodeBucketList(nil))
	f.Add(EncodeBucketList([]uint32{1, 2, 1 << 31}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, in []byte) {
		ids, err := DecodeBucketList(in)
		if err != nil {
			return
		}
		if out := EncodeBucketList(ids); !bytes.Equal(out, in) {
			t.Fatalf("re-encoded %x, input %x", out, in)
		}
	})
}

func FuzzDecodeTree(f *testing.F) {
	f.Add(EncodeTree(1024, nil))
	f.Add(EncodeTree(8, []TreeNode{{Node: 1, Hash: 0xDEADBEEF}, {Node: 15, Hash: 1}}))
	f.Add([]byte{0, 0, 0, 8, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, in []byte) {
		buckets, nodes, err := DecodeTree(in)
		if err != nil {
			return
		}
		if out := EncodeTree(buckets, nodes); !bytes.Equal(out, in) {
			t.Fatalf("re-encoded %x, input %x", out, in)
		}
	})
}

func FuzzDecodeRangeV(f *testing.F) {
	b, _ := EncodeRangeV([]KeyDigest{
		{Key: "a", Version: 1, Digest: 0xABCD},
		{Key: "gone", Version: 9, Tombstone: true},
		{Key: "", Version: 3},
	})
	f.Add(b)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, in []byte) {
		entries, err := DecodeRangeV(in)
		if err != nil {
			return
		}
		if rangeVEntryMin*cap(entries) > len(in) {
			t.Fatalf("%d-entry listing allocated for a %d-byte body", cap(entries), len(in))
		}
		// Unknown flag bits are dropped, so only the value round-trips,
		// and the bytes can only shrink.
		out, err := EncodeRangeV(entries)
		if err != nil || len(out) > len(in) {
			t.Fatalf("re-encoded to %d bytes %v, input %d", len(out), err, len(in))
		}
		if again, err := DecodeRangeV(out); err != nil || !reflect.DeepEqual(again, entries) {
			t.Fatalf("re-decoded %+v %v, want %+v", again, err, entries)
		}
	})
}

func FuzzDecodeTraceQuery(f *testing.F) {
	f.Add(EncodeTraceQuery(TraceQueryAll, 0))
	f.Add(EncodeTraceQuery(TraceQueryID, 0xFEEDFACE))
	f.Add(EncodeTraceQuery(TraceQuerySlow, 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		mode, id, err := DecodeTraceQuery(in)
		if err != nil {
			return
		}
		if out := EncodeTraceQuery(mode, id); !bytes.Equal(out, in) {
			t.Fatalf("re-encoded %x, input %x", out, in)
		}
	})
}

// checkBatchBody walks a decoded batch body, hands each item to item,
// and asserts the walk allocated nothing the body did not pay for and
// that the body re-encodes, canonically, to itself. It reports whether
// the whole body parsed.
func checkBatchBody(t *testing.T, body []byte, item func([]byte)) bool {
	t.Helper()
	items, err := DecodeBatch(body)
	if err != nil {
		return false
	}
	if items.Len()*batchItemMin > len(body) {
		t.Fatalf("a %d-byte body decoded to a count of %d", len(body), items.Len())
	}
	out := AppendBatchHeader(dirtyDst(), items.Len())
	for items.Len() > 0 {
		it, err := items.Next()
		if err != nil {
			return false
		}
		item(it)
		out = AppendBatchItem(out, it)
	}
	checkReencoded(t, out, nil, body, false)
	return true
}

func FuzzDecodeBatchRequest(f *testing.F) {
	a, _ := EncodeRequest(Request{Op: OpSetV, Key: "k", Value: []byte("v"), Version: 42})
	b, _ := EncodeRequest(Request{Op: OpMerge, Key: "gone", Version: 9, Flags: FlagTombstone})
	for _, body := range [][]byte{
		AppendBatchHeader(nil, 0),
		AppendBatchItem(AppendBatchItem(AppendBatchHeader(nil, 2), a), b),
		AppendBatchItem(AppendBatchHeader(nil, 2), a), // count one more than it holds
		{0xFF, 0xFF, 0xFF, 0xFF},
	} {
		env, _ := EncodeRequest(Request{Op: OpBatch, Value: body})
		f.Add(env)
	}
	echo := protocolFrames{HandlerFunc(func(r Request) Response { return Response{Status: StatusOK, Value: r.Value} })}
	f.Fuzz(func(t *testing.T, in []byte) {
		env, err := DecodeRequest(in)
		if err != nil || env.Op != OpBatch {
			return
		}
		entries := 0
		whole := checkBatchBody(t, env.Value, func(item []byte) {
			entries++
			_, _ = DecodeRequest(item) // an entry is the request decoder's to judge
		})
		// The server's walk of the same frame: a reply either way, and
		// one response per entry exactly when the envelope parsed.
		reply, err := DecodeResponse(echo.ServeFrame(dirtyDst(), in, FrameMeta{})[len(dirtyDst()):])
		if err != nil {
			t.Fatalf("reply to a batch frame does not decode: %v", err)
		}
		if whole != (reply.Status == StatusOK) {
			t.Fatalf("envelope parsed = %v, server answered %s", whole, reply.Status)
		}
		if whole {
			if items, err := DecodeBatch(reply.Value); err != nil || items.Len() != entries {
				t.Fatalf("reply holds %d responses (%v), frame had %d entries", items.Len(), err, entries)
			}
		}
	})
}

func FuzzDecodeBatchResponse(f *testing.F) {
	ok := EncodeResponseV(Response{Status: StatusOK, Version: 1234})
	lost := EncodeResponseV(Response{Status: StatusExists, Version: 99, Flags: FlagTombstone})
	for _, body := range [][]byte{
		AppendBatchItem(AppendBatchItem(AppendBatchHeader(nil, 2), ok), lost),
		AppendBatchItem(AppendBatchHeader(nil, 1), ok), // one response short of two entries
		AppendBatchItem(AppendBatchHeader(nil, 2), ok), // count one more than it holds
		{0xFF, 0xFF, 0xFF, 0xFF},
	} {
		f.Add(EncodeResponse(Response{Status: StatusOK, Value: body}))
	}
	f.Add(EncodeResponse(Response{Status: StatusError, Value: []byte("unknown op 18")}))
	f.Add(EncodeResponse(Response{Status: StatusBusy}))
	f.Fuzz(func(t *testing.T, in []byte) {
		if env, err := DecodeResponse(in); err == nil && env.Status == StatusOK {
			checkBatchBody(t, env.Value, func(item []byte) { _, _ = DecodeResponseV(item) })
		}
		// The client's walk of the same bytes, as the reply to a frame of
		// two entries: two outcomes, whatever they are, and nothing after
		// them.
		p := new(Pending)
		p.done.Add(1)
		p.resolve(in, nil)
		b := Batch{first: batchFrame{p: p, n: 2}, sent: 1}
		for i := 0; i < 2; i++ {
			_, _ = b.NextV()
		}
		if _, err := b.NextV(); err == nil {
			t.Fatal("a third reply from a frame of two entries")
		}
	})
}
