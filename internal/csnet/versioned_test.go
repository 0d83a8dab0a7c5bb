package csnet

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pdcedu/internal/obs"
	"pdcedu/internal/store"
	"pdcedu/internal/trace"
)

// sendV sends req over cl and returns its versioned reply: how these
// tests drive the ops Client has no helper for (OpDelV, OpMerge).
func sendV(cl *Client, req Request) (Response, error) {
	return cl.Send(req).ResponseV()
}

// rangeV lists the given Merkle buckets over cl (OpRangeV), the way the
// anti-entropy coordinator does.
func rangeV(cl *Client, bucketIDs []uint32) ([]KeyDigest, error) {
	resp, err := sendV(cl, Request{Op: OpRangeV, Value: EncodeBucketList(bucketIDs)})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, fmt.Errorf("rangev: %s: %s", resp.Status, resp.Value)
	}
	return DecodeRangeV(resp.Value)
}

func TestVersionedRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpSetV, Key: "k", Value: []byte("v"), Version: 42},
		{Op: OpGetV, Key: "k"},
		{Op: OpDelV, Key: "k", Version: 7},
		{Op: OpMerge, Key: "k", Version: 9, Flags: FlagTombstone},
		{Op: OpMerge, Key: "k", Value: []byte("payload"), Version: 1<<63 + 5},
		{Op: OpPurgeV, Key: "k", Version: 13},
	}
	for _, want := range reqs {
		b, err := EncodeRequest(want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := DecodeRequest(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got.Op != want.Op || got.Key != want.Key || string(got.Value) != string(want.Value) ||
			got.Version != want.Version || got.Flags != want.Flags {
			t.Fatalf("roundtrip = %+v, want %+v", got, want)
		}
	}
	// Unversioned ops must decode to a zero trailer and reject stray bytes.
	if b, _ := EncodeRequest(Request{Op: OpEcho, Key: "k", Value: []byte("v"), Version: 99}); true {
		got, err := DecodeRequest(b)
		if err != nil || got.Version != 0 {
			t.Fatalf("unversioned op carried a version: %+v %v", got, err)
		}
	}
	// A versioned frame with a truncated trailer is an error, not a
	// silent zero version.
	b, _ := EncodeRequest(Request{Op: OpSetV, Key: "k", Value: []byte("v"), Version: 42})
	if _, err := DecodeRequest(b[:len(b)-3]); err == nil {
		t.Fatal("truncated versioned request accepted")
	}
}

func TestVersionedResponseRoundTrip(t *testing.T) {
	for _, want := range []Response{
		{Status: StatusOK, Value: []byte("v"), Version: 1234, Flags: FlagTombstone},
		{Status: StatusOK, Value: []byte("v"), Version: 9},
	} {
		got, err := DecodeResponseV(EncodeResponseV(want))
		if err != nil || got.Status != want.Status || string(got.Value) != "v" ||
			got.Version != want.Version || got.Flags != want.Flags {
			t.Fatalf("roundtrip = %+v %v, want %+v", got, err, want)
		}
	}
	if _, err := DecodeResponseV(EncodeResponse(Response{Status: StatusOK, Value: []byte("v")})); err == nil {
		t.Fatal("legacy response decoded as versioned")
	}
	if _, err := DecodeResponseV([]byte{1, 0}); err == nil {
		t.Fatal("short versioned response accepted")
	}
}

// TestVersionedOpsEndToEnd drives the versioned protocol over a real
// server: versioned merge semantics, tombstone-aware GetV, a bucket
// listing that shows tombstones, and the version-bounded purge.
func TestVersionedOpsEndToEnd(t *testing.T) {
	kv := NewKVHandler()
	srv := NewServer(kv, 16)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr, time.Second)
	if err != nil {
		srv.Shutdown()
		t.Fatal(err)
	}
	shutdownOnCleanup(t, srv, cl)

	// SetV with an explicit version, then a stale one: must be kept out.
	if winner, applied, err := cl.SetV("k", []byte("v2"), 200); err != nil || !applied || winner != 200 {
		t.Fatalf("SetV(200) = %d %v %v", winner, applied, err)
	}
	if winner, applied, err := cl.SetV("k", []byte("v1"), 100); err != nil || applied || winner != 200 {
		t.Fatalf("stale SetV(100) = %d %v %v, want kept 200", winner, applied, err)
	}
	e, ok, err := cl.GetV("k")
	if err != nil || !ok || string(e.Value) != "v2" || e.Version != 200 {
		t.Fatalf("GetV = %+v %v %v", e, ok, err)
	}
	// SetV with version 0: the server stamps one past what it has seen.
	winner, applied, err := cl.SetV("k", []byte("v3"), 0)
	if err != nil || !applied || winner <= 200 {
		t.Fatalf("server-stamped SetV = %d %v %v, want version past 200", winner, applied, err)
	}
	// A stale tombstone loses; a newer one deletes — and GetV reports
	// the tombstone's version on the miss.
	if resp, err := sendV(cl, MergeRequest("k", store.Entry{Version: 150, Tombstone: true}, trace.Context{})); err != nil || resp.Status != StatusExists {
		t.Fatalf("stale tombstone merge = %+v %v, want EXISTS", resp, err)
	}
	delVer := winner + 100
	if resp, err := sendV(cl, Request{Op: OpDelV, Key: "k", Version: delVer}); err != nil || resp.Status != StatusOK {
		t.Fatalf("DelV = %+v %v", resp, err)
	}
	e, ok, err = cl.GetV("k")
	if err != nil || ok || !e.Tombstone || e.Version != delVer {
		t.Fatalf("GetV after DelV = %+v %v %v, want tombstone@%d", e, ok, err, delVer)
	}
	// Merge resurrects with a newer value.
	if resp, err := sendV(cl, MergeRequest("k", store.Entry{Value: []byte("back"), Version: delVer + 1}, trace.Context{})); err != nil || resp.Status != StatusOK {
		t.Fatalf("resurrecting merge = %+v %v", resp, err)
	}
	if e, ok, err := cl.GetV("k"); err != nil || !ok || string(e.Value) != "back" {
		t.Fatalf("GetV after merge = %+v %v %v", e, ok, err)
	}
	// RangeV lists tombstones; GetV misses them.
	cl.SetV("dead", []byte("x"), 10)
	sendV(cl, Request{Op: OpDelV, Key: "dead", Version: 20})
	listing, err := rangeV(cl, []uint32{uint32(store.BucketOf("dead", kv.Engine().Buckets()))})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]KeyDigest{}
	for _, kd := range listing {
		byKey[kd.Key] = kd
	}
	if !byKey["dead"].Tombstone || byKey["dead"].Version != 20 {
		t.Fatalf("RangeV lost the tombstone: %+v", byKey["dead"])
	}
	if e, ok, err := cl.GetV("dead"); err != nil || ok || !e.Tombstone {
		t.Fatalf("GetV of a tombstone = %+v %v %v, want a tombstone miss", e, ok, err)
	}
	// Merge without a version is a protocol error.
	if resp, err := sendV(cl, MergeRequest("k", store.Entry{Value: []byte("x")}, trace.Context{})); err != nil || resp.Status != StatusError {
		t.Fatalf("version-0 merge = %+v %v, want ERROR", resp, err)
	}
	// A version claiming to be from the far future is rejected at the
	// trust boundary before it can poison the server's clock or plant
	// an unGCable tombstone — for every versioned write op.
	for _, hostile := range []uint64{^uint64(0), store.VersionCeiling(time.Now().Add(time.Hour))} {
		if resp, err := sendV(cl, MergeRequest("k", store.Entry{Value: []byte("x"), Version: hostile}, trace.Context{})); err != nil || resp.Status != StatusError {
			t.Fatalf("far-future merge version %d = %+v %v, want ERROR", hostile, resp, err)
		}
		if _, _, err := cl.SetV("k", []byte("x"), hostile); err == nil {
			t.Fatalf("far-future setv version %d accepted", hostile)
		}
		if resp, err := sendV(cl, Request{Op: OpDelV, Key: "k", Version: hostile}); err != nil || resp.Status != StatusError {
			t.Fatalf("far-future delv version %d = %+v %v, want ERROR", hostile, resp, err)
		}
	}
	if e, ok, err := cl.GetV("k"); err != nil || !ok || string(e.Value) != "back" {
		t.Fatalf("value damaged by rejected hostile versions: %+v %v %v", e, ok, err)
	}
	// A purge removes an entry — tombstones too, leaving nothing — only
	// at or below its version, and reports what it kept.
	purge := func(ver uint64) Response {
		t.Helper()
		resp, err := cl.Send(Request{Op: OpPurgeV, Key: "dead", Version: ver}).ResponseV()
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := purge(19); resp.Status != StatusExists || resp.Version != 20 {
		t.Fatalf("purge under the resident version = %+v, want Exists@20", resp)
	}
	if resp := purge(20); resp.Status != StatusOK {
		t.Fatalf("purge at the resident version = %+v, want OK", resp)
	}
	if _, e, ok := kv.Engine().AppendLoad(nil, "dead"); ok {
		t.Fatalf("purged tombstone still resident: %+v", e)
	}
	if resp := purge(20); resp.Status != StatusExists || resp.Version != 0 {
		t.Fatalf("purge of an absent key = %+v, want Exists@0", resp)
	}
}

// TestRefusedProbesLendNothing: a versioned DELV refused as stale reads
// the key's liveness, and a refused PURGEV the resident version, before
// answering, into the worker's scratch; neither reply carries the
// value. Each probe, served as a worker serves it, is followed by a
// SETV of a value of the same length, which must rewrite the record in
// place (store.table.rewrites advances) and allocate nothing.
func TestRefusedProbesLendNothing(t *testing.T) {
	probes := map[string]Request{
		"stale DELV":     {Op: OpDelV, Key: "k", Version: 1},
		"refused PURGEV": {Op: OpPurgeV, Key: "k", Version: 1},
	}
	for name, probe := range probes {
		t.Run(name, func(t *testing.T) {
			kv := NewKVHandler()
			val := make([]byte, 128)
			kv.Engine().Set("k", val)
			fh := protocolFrames{h: kv}
			w := worker{scratch: getBuf(0)}
			defer func() { putBuf(w.scratch) }()
			meta := FrameMeta{w: &w}
			body, err := EncodeRequest(probe)
			if err != nil {
				t.Fatal(err)
			}
			setv, err := EncodeRequest(Request{Op: OpSetV, Key: "k", Value: val}) // server-stamped: always newer
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, 0, bufMinCap)
			if resp, err := DecodeResponseV(fh.ServeFrame(dst, body, meta)); err != nil || resp.Status != StatusExists {
				t.Fatalf("%s = %+v %v, want refused", probe.Op, resp, err)
			}
			rewrites := obs.Default().Counter("store.table.rewrites")
			before := rewrites.Value()
			if live := muxGoroutines(); len(live) > 0 {
				t.Fatalf("mux goroutines an earlier test left running would allocate inside the measurement: %s",
					strings.Join(live, "; "))
			}
			const runs = 100
			allocs := testing.AllocsPerRun(runs, func() {
				dst = fh.ServeFrame(dst[:0], body, meta)
				dst = fh.ServeFrame(dst[:0], setv, meta)
			})
			if allocs != 0 {
				t.Errorf("%s then a same-length SETV: %.0f allocations, want 0", name, allocs)
			}
			if d := rewrites.Value() - before; d < runs {
				t.Errorf("%d SETVs after a %s rewrote %d records in place, want every one", runs, name, d)
			}
		})
	}
}

// TestRetiredKeysVIsUnknownOp pins the retired op bytes: the unversioned
// GET, SET, DEL, SETNX and KEYS (2, 3, 4, 6, 8) and the whole-store
// listing OpKeysV (13). A request on any of them still decodes and is
// answered "unknown op N" in the framing its byte always had — so an
// older peer reads a refusal, not garbage — it leaves the engine
// untouched, and the same connection goes on serving the versioned ops.
func TestRetiredKeysVIsUnknownOp(t *testing.T) {
	kv := NewKVHandler()
	srv := NewServer(kv, 16)
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
	if _, _, err := cl.SetV("k", []byte("v"), 5); err != nil {
		t.Fatal(err)
	}

	if OpEcho != 5 || OpGossip != 7 || OpSetV != 9 || opRetiredKeysV != 13 || OpTreeV != 14 || OpBatch != 18 {
		t.Fatalf("op bytes moved: Echo %d, Gossip %d, SetV %d, retired KeysV %d, TreeV %d, Batch %d",
			OpEcho, OpGossip, OpSetV, opRetiredKeysV, OpTreeV, OpBatch)
	}
	for _, retired := range []struct {
		name string
		op   Op
	}{{"GET", 2}, {"SET", 3}, {"DEL", 4}, {"SETNX", 6}, {"KEYS", 8}, {"KEYSV", opRetiredKeysV}} {
		t.Run(retired.name, func(t *testing.T) {
			call := cl.Send(Request{Op: retired.op, Key: "k", Value: []byte("clobbered"), Version: 9})
			reply := call.Response
			if Versioned(retired.op) {
				reply = call.ResponseV
			}
			resp, err := reply()
			if want := fmt.Sprintf("unknown op %d", retired.op); err != nil || resp.Status != StatusError || string(resp.Value) != want {
				t.Fatalf("op %d = %+v %v, want StatusError %q", retired.op, resp, err, want)
			}
			if _, e, ok := kv.Engine().AppendLoad(nil, "k"); !ok || string(e.Value) != "v" || e.Version != 5 || e.Tombstone {
				t.Fatalf("op %d changed the engine: k = %+v %v", retired.op, e, ok)
			}
			if live, tombs := kv.Engine().Counts(); live != 1 || tombs != 0 {
				t.Fatalf("op %d changed the engine: %d live, %d tombstones", retired.op, live, tombs)
			}
			if e, ok, err := cl.GetV("k"); err != nil || !ok || string(e.Value) != "v" || e.Version != 5 {
				t.Fatalf("GetV after the refusal = %+v %v %v", e, ok, err)
			}
		})
	}
	if buckets, nodes, err := cl.TreeV(nil); err != nil || buckets != kv.Engine().Buckets() || len(nodes) != 1 || nodes[0].Hash == 0 {
		t.Fatalf("TreeV after the refusals = %d %+v %v", buckets, nodes, err)
	}
	listing, err := rangeV(cl, []uint32{uint32(store.BucketOf("k", kv.Engine().Buckets()))})
	if err != nil || len(listing) != 1 || listing[0].Key != "k" || listing[0].Version != 5 {
		t.Fatalf("RangeV after the refusals = %+v %v", listing, err)
	}
}

// TestTracedLegacyInterop pins the trace trailer's interop discipline:
// an untraced versioned frame is byte-identical to a pre-tracing build
// (no FlagHasTrace, no trailer extension — built here by hand), a
// traced frame round-trips its context, and traced and untraced
// versioned frames mix freely on one server port with only the traced
// request recording spans.
func TestTracedLegacyInterop(t *testing.T) {
	// Untraced wire bytes, fully hand-assembled: any trailer growth on
	// the untraced path breaks legacy peers and must fail here.
	req := Request{Op: OpSetV, Key: "k", Value: []byte("v"), Version: 7}
	b, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		byte(OpSetV),
		0, 1, 'k', // keyLen(2) key
		0, 0, 0, 1, 'v', // valLen(4) val
		0, 0, 0, 0, 0, 0, 0, 7, // version(8)
		0, // flags: no trace
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("untraced SetV frame = %x, want byte-identical pre-tracing wire %x", b, want)
	}

	// The traced frame is exactly the 17-byte extension longer and
	// round-trips its context; decoding the untraced frame yields the
	// zero context.
	tc := trace.Context{TraceID: 0xDEADBEEF, SpanID: 0x1234, Flags: trace.FlagSampled}
	req.Trace = tc
	tb, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb) != len(b)+17 {
		t.Fatalf("traced frame is %d bytes, want untraced %d + 17", len(tb), len(b))
	}
	dec, err := DecodeRequest(tb)
	if err != nil || dec.Trace != tc {
		t.Fatalf("traced round trip = %+v %v, want context %+v", dec.Trace, err, tc)
	}
	if dec, err := DecodeRequest(b); err != nil || dec.Trace.Valid() {
		t.Fatalf("untraced decode = %+v %v, want zero trace context", dec.Trace, err)
	}

	// Mixed traffic on one port: the server records spans only for the
	// traced request, and every flavor of peer keeps working.
	rec := trace.New(trace.Config{Node: "srv"})
	srv := NewServer(NewKVHandler().WithTracer(rec), 16)
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

	resp, err := cl.Send(Request{Op: OpSetV, Key: "traced", Value: []byte("t"), Version: 1, Trace: tc}).ResponseV()
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("traced SetV = %+v %v", resp, err)
	}
	if _, _, err := cl.SetV("plain", []byte("p"), 0); err != nil {
		t.Fatalf("untraced SetV on the same port: %v", err)
	}
	if e, ok, err := cl.GetV("traced"); err != nil || !ok || string(e.Value) != "t" {
		t.Fatalf("untraced GetV of traced write = %+v %v %v", e, ok, err)
	}
	if e, ok, err := cl.GetV("plain"); err != nil || !ok || string(e.Value) != "p" {
		t.Fatalf("untraced GetV of untraced write = %+v %v %v", e, ok, err)
	}
	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("traced request recorded no server spans")
	}
	for _, s := range spans {
		if s.TraceID != tc.TraceID {
			t.Fatalf("span %+v recorded outside trace %x: untraced requests must not record", s, tc.TraceID)
		}
	}
	found := false
	for _, s := range spans {
		if s.Kind == trace.KindServer && s.Op == "SETV" && s.Parent == tc.SpanID && s.Node == "srv" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no server SETV span parented to the wire context in %+v", spans)
	}
}

// TestSpansAndSlowOpsNameTheEnginesBucket serves a node whose engine has
// 64 Merkle leaves, not the default 1024, a key whose default-geometry
// bucket is past 63: a traced MERGE and GETV must label their engine
// spans, and the slow-op log its lines, with the key's bucket in that
// engine's tree — a leaf its digest has.
func TestSpansAndSlowOpsNameTheEnginesBucket(t *testing.T) {
	eng := store.NewSharded(store.Options{Shards: 8, MerkleBuckets: 64})
	key := "k"
	for i := 0; store.BucketOf(key, store.DefaultMerkleBuckets) < eng.Buckets(); i++ {
		key = fmt.Sprintf("k%d", i)
	}
	want := store.BucketOf(key, eng.Buckets())
	var mu sync.Mutex
	var logged []int
	SetSlowOp(time.Nanosecond, eng.Buckets(), func(_ Op, bucket int, _ time.Duration, _ uint64) {
		mu.Lock()
		logged = append(logged, bucket)
		mu.Unlock()
	})
	defer SetSlowOp(0, 0, nil)

	rec := trace.New(trace.Config{Node: "n64"})
	fh := protocolFrames{h: NewKVHandlerOn(eng).WithTracer(rec)}
	tc := trace.Context{TraceID: 0x64, SpanID: 1, Flags: trace.FlagSampled}
	for _, req := range []Request{
		{Op: OpMerge, Key: key, Value: []byte("v"), Version: eng.Clock().Next(), Trace: tc},
		{Op: OpGetV, Key: key, Trace: tc},
	} {
		body, err := EncodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := DecodeResponseV(fh.ServeFrame(nil, body, FrameMeta{})); err != nil || resp.Status != StatusOK {
			t.Fatalf("%s = %+v %v", req.Op, resp, err)
		}
	}
	ops := map[string]int32{}
	for _, s := range rec.TraceSpans(tc.TraceID) {
		if s.Kind == trace.KindEngine {
			ops[s.Op] = s.Bucket
		}
	}
	if len(ops) != 2 || ops["merge"] != int32(want) || ops["get"] != int32(want) {
		t.Errorf("engine spans name buckets %v, want %d for merge and get in a %d-leaf tree", ops, want, eng.Buckets())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 2 || logged[0] != want || logged[1] != want {
		t.Errorf("slow-op log named buckets %v, want [%d %d]", logged, want, want)
	}
}
