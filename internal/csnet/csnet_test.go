package csnet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"pdcedu/internal/store"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Errorf("frame = %q", got)
	}
}

func TestFrameEmptyAndSizeGuard(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil || len(got) != 0 {
		t.Errorf("empty frame = %v, %v", got, err)
	}
	big := make([]byte, MaxFrameSize+1)
	if err := WriteFrame(&buf, big); err != ErrFrameTooLarge {
		t.Errorf("oversize write err = %v", err)
	}
	// A hostile header claiming a giant frame must be rejected.
	var evil bytes.Buffer
	evil.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&evil); err != ErrFrameTooLarge {
		t.Errorf("hostile header err = %v", err)
	}
}

// Property: request and response codecs round-trip arbitrary content.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(op byte, key string, value []byte) bool {
		if len(key) > 0xFFFF {
			key = key[:0xFFFF]
		}
		req := Request{Op: Op(op), Key: key, Value: value}
		enc, err := EncodeRequest(req)
		if err != nil {
			return false
		}
		dec, err := DecodeRequest(enc)
		if err != nil {
			return false
		}
		if dec.Op != req.Op || dec.Key != req.Key || !bytes.Equal(dec.Value, req.Value) {
			return false
		}
		resp := Response{Status: Status(op), Value: value}
		dr, err := DecodeResponse(EncodeResponse(resp))
		if err != nil {
			return false
		}
		return dr.Status == resp.Status && bytes.Equal(dr.Value, resp.Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {1}, {1, 0, 5, 'a'}, {1, 0, 1, 'k', 0, 0, 0, 9}} {
		if _, err := DecodeRequest(b); err == nil {
			t.Errorf("DecodeRequest(%v) accepted", b)
		}
	}
	for _, b := range [][]byte{nil, {1}, {1, 0, 0, 0, 9}} {
		if _, err := DecodeResponse(b); err == nil {
			t.Errorf("DecodeResponse(%v) accepted", b)
		}
	}
}

func TestKVServerEndToEnd(t *testing.T) {
	srv := NewServer(NewKVHandler(), 16)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SetV("course", []byte("parallel programming"), 0); err != nil {
		t.Fatal(err)
	}
	e, ok, err := c.GetV("course")
	if err != nil || !ok || string(e.Value) != "parallel programming" {
		t.Fatalf("GetV = %q,%v,%v", e.Value, ok, err)
	}
	if _, ok, _ := c.GetV("missing"); ok {
		t.Error("missing key reported found")
	}
	if resp, err := c.Send(Request{Op: OpDelV, Key: "course"}).ResponseV(); err != nil || resp.Status != StatusOK {
		t.Errorf("DelV = %+v,%v", resp, err)
	}
	if resp, _ := c.Send(Request{Op: OpDelV, Key: "course"}).ResponseV(); resp.Status != StatusNotFound {
		t.Errorf("double delete = %+v, want NOT_FOUND", resp)
	}
	// Echo and unknown op.
	resp, err := c.Do(Request{Op: OpEcho, Value: []byte("abc")})
	if err != nil || string(resp.Value) != "abc" {
		t.Errorf("Echo = %+v, %v", resp, err)
	}
	resp, err = c.Do(Request{Op: Op(99)})
	if err != nil || resp.Status != StatusError {
		t.Errorf("unknown op = %+v, %v", resp, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	kv := NewKVHandler()
	srv := NewServer(kv, 32)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				key := fmt.Sprintf("k-%d-%d", i, j)
				if _, _, err := c.SetV(key, []byte(key), 0); err != nil {
					errs <- err
					return
				}
				e, ok, err := c.GetV(key)
				if err != nil || !ok || string(e.Value) != key {
					errs <- fmt.Errorf("get %s = %q,%v,%v", key, e.Value, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if kv.Len() != clients*perClient {
		t.Errorf("store has %d keys, want %d", kv.Len(), clients*perClient)
	}
}

func TestServerShutdownUnblocksClients(t *testing.T) {
	srv := NewServer(NewKVHandler(), 4)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Shutdown()
	if err := c.Ping(); err == nil {
		t.Error("ping succeeded after shutdown")
	}
	// Starting a shut-down server must fail.
	if _, err := srv.Start("127.0.0.1:0"); err == nil {
		t.Error("restart of shut-down server accepted")
	}
}

// TestServeBoundListener pins the order a node starts in: the listener
// is bound before the server (and the handler that needs its address)
// exists, and Serve takes it over. A shut-down server refuses a
// listener and closes it; Start, which is Listen plus Serve, still
// returns the address it bound.
func TestServeBoundListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	kv := NewKVHandler()
	kv.Serve(Request{Op: OpSetV, Key: "addr", Value: []byte(ln.Addr().String()), Version: 1})
	srv := NewServer(kv, 4)
	if err := srv.Serve(ln); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if e, ok, err := c.GetV("addr"); err != nil || !ok || string(e.Value) != ln.Addr().String() {
		t.Fatalf("GetV through the served listener = %q,%v,%v", e.Value, ok, err)
	}
	srv.Shutdown()

	late, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(late); err == nil {
		t.Fatal("shut-down server accepted a listener")
	}
	if _, err := late.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("refused listener's Accept = %v, want net.ErrClosed", err)
	}

	started := NewServer(NewKVHandler(), 4)
	addr, err := started.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer started.Shutdown()
	if _, port, err := net.SplitHostPort(addr); err != nil || port == "0" {
		t.Fatalf("Start returned %q, want the bound address", addr)
	}
	sc, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if err := sc.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestHandlerFunc(t *testing.T) {
	h := HandlerFunc(func(r Request) Response {
		return Response{Status: StatusOK, Value: []byte(r.Key)}
	})
	resp := h.Serve(Request{Key: "xyz"})
	if string(resp.Value) != "xyz" {
		t.Errorf("HandlerFunc = %+v", resp)
	}
}

func TestUDPEcho(t *testing.T) {
	conn, addr, err := UDPEchoServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := UDPEcho(addr, []byte("datagram"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "datagram" {
		t.Errorf("echo = %q", got)
	}
}

func TestUDPEchoTimeout(t *testing.T) {
	// Nothing listening on this port: the read must time out.
	_, err := UDPEcho("127.0.0.1:1", []byte("lost"), 50*time.Millisecond)
	if err == nil {
		t.Error("expected timeout against dead server")
	}
}

func TestOpAndStatusStrings(t *testing.T) {
	if OpPing.String() != "PING" || OpGetV.String() != "GETV" || OpSetV.String() != "SETV" ||
		OpDelV.String() != "DELV" || OpEcho.String() != "ECHO" || Op(77).String() != "UNKNOWN" {
		t.Error("Op.String mismatch")
	}
	if StatusOK.String() != "OK" || StatusNotFound.String() != "NOT_FOUND" ||
		StatusError.String() != "ERROR" || Status(77).String() != "UNKNOWN" {
		t.Error("Status.String mismatch")
	}
}

func TestKeyTooLong(t *testing.T) {
	_, err := EncodeRequest(Request{Op: OpGetV, Key: string(make([]byte, 70000))})
	if err == nil {
		t.Error("oversized key accepted")
	}
}

func BenchmarkKVRoundTrip(b *testing.B) {
	srv := NewServer(NewKVHandler(), 16)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown()
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rising versions: every write wins its merge.
		if _, applied, err := c.SetV("bench", payload, uint64(i+1)); err != nil || !applied {
			b.Fatalf("setv: applied=%v %v", applied, err)
		}
	}
}

// BenchmarkKVBatch is the same SetV as a one-entry Batch, the frame
// every replica of a coordinator's Set gets: the Batch draws its
// Pending and reply body from the transport and hands them back, and
// the engine rewrites the key's record in place, so the round trip
// allocates nothing.
func BenchmarkKVBatch(b *testing.B) {
	srv := NewServer(NewKVHandler(), 16)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown()
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := c.Batch()
		batch.Add(Request{Op: OpSetV, Key: "bench", Value: payload, Version: uint64(i + 1)})
		batch.Send()
		if resp, err := batch.NextV(); err != nil || resp.Status != StatusOK {
			b.Fatalf("batch setv: %v %v", resp.Status, err)
		}
	}
}

// BenchmarkKVPipelined measures the same SetV with a 64-deep pipeline
// window on one multiplexed connection (E23): requests stream instead
// of waiting a full round-trip each, so the wire stays busy and the
// per-op syscall and alloc cost amortizes across a batch. Server
// workers may apply a window out of order, so the writes cycle over
// 4096 keys: a key's next version is a whole cycle later, and every
// write wins its merge.
func BenchmarkKVPipelined(b *testing.B) {
	srv := NewServer(NewKVHandler(), 16)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown()
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 128)
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-%d", i)
	}
	const window = 64
	calls := make([]*Call, 0, window)
	drain := func() {
		for _, call := range calls {
			resp, err := call.ResponseV()
			if err != nil || resp.Status != StatusOK {
				b.Fatalf("pipelined setv: %v %v", resp.Status, err)
			}
		}
		calls = calls[:0]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := Request{Op: OpSetV, Key: keys[i%len(keys)], Value: payload, Version: uint64(i + 1)}
		calls = append(calls, c.Send(req))
		if len(calls) == window {
			drain()
		}
	}
	drain()
}

// BenchmarkServeFrameGetV is a node serving one GETV frame of a resident
// key, decode to encoded reply, as a server worker runs it: it
// allocates nothing — the key aliases the frame, the value is copied
// into the worker's scratch, and the reply is appended to the
// transport's dst. scripts/allocgate.sh holds it to 0.
func BenchmarkServeFrameGetV(b *testing.B) {
	kv := NewKVHandler()
	kv.Engine().Set("bench", make([]byte, 128))
	body, err := EncodeRequest(Request{Op: OpGetV, Key: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	fh := protocolFrames{h: kv}
	w := worker{scratch: getBuf(0)} // a worker's, drawn once
	defer func() { putBuf(w.scratch) }()
	meta := FrameMeta{w: &w}
	dst := make([]byte, 0, bufMinCap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = fh.ServeFrame(dst[:0], body, meta)
	}
	if resp, err := DecodeResponseV(dst); err != nil || resp.Status != StatusOK || len(resp.Value) != 128 {
		b.Fatalf("GETV = %+v %v", resp, err)
	}
}

// warmWorker serves body through w as a server worker does, then hands
// the reply's buffer back as the frame writer would once the reply is
// written, and returns the reply as it was before that release.
func warmWorker(b *testing.B, w *worker, fh FrameHandler, body []byte) Response {
	b.Helper()
	f := w.serve(fh, muxFrame{body: body})
	if len(f.body) > muxBufSize {
		b.Fatalf("reply of %d bytes does not fit muxBufSize", len(f.body))
	}
	decode := DecodeResponse
	if Versioned(Op(body[0])) {
		decode = DecodeResponseV
	}
	resp, err := decode(f.body)
	if err != nil {
		b.Fatal(err)
	}
	resp.Value = bytes.Clone(resp.Value)
	putBuf(f.free[1])
	return resp
}

// BenchmarkServeFrameRangeV is a node serving one OpRangeV listing
// frame whose reply fits muxBufSize, as a warm worker serves it: the
// listing is built in the worker's scratch, the bucket set it marks is
// the worker's, and the reply frame is drawn from the free list and
// goes back to it, so the frame allocates nothing.
// scripts/allocgate.sh holds it to 0.
func BenchmarkServeFrameRangeV(b *testing.B) {
	kv := NewKVHandler()
	for i := 0; i < 20_000; i++ {
		kv.Engine().Merge(fmt.Sprintf("key-%07d", i), store.Entry{Value: make([]byte, 128), Version: uint64(1000 + i)})
	}
	ids := make([]uint32, 64) // ~20 keys a bucket: a ~38 KB listing
	for i := range ids {
		ids[i] = uint32(i * 16)
	}
	body, err := EncodeRequest(Request{Op: OpRangeV, Value: EncodeBucketList(ids)})
	if err != nil {
		b.Fatal(err)
	}
	var fh FrameHandler = protocolFrames{h: kv} // boxed once, as a Server holds it
	w := worker{scratch: getBuf(0)}
	defer func() { putBuf(w.scratch) }()
	if resp := warmWorker(b, &w, fh, body); resp.Status != StatusOK || len(resp.Value) < muxBufSize/2 {
		b.Fatalf("RANGEV = %s, %d bytes; want a listing of more than half a frame", resp.Status, len(resp.Value))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		putBuf(w.serve(fh, muxFrame{body: body}).free[1])
	}
}

// BenchmarkServeFrameGetVBurst is a node serving one OpBatch frame of
// 256 GETVs whose reply fits muxBufSize — a heal pass's repair reads —
// as a warm worker serves it: each value is copied into the worker's
// scratch and encoded into a reply frame drawn from the free list, and
// the frame's Commit is the worker's, so it allocates nothing.
// scripts/allocgate.sh holds it to 0.
func BenchmarkServeFrameGetVBurst(b *testing.B) {
	const reads = 256
	kv := NewKVHandler()
	env := AppendBatchHeader(nil, reads)
	for i := 0; i < reads; i++ {
		key := fmt.Sprintf("burst-%04d", i)
		kv.Engine().Set(key, make([]byte, 128))
		enc, err := EncodeRequest(Request{Op: OpGetV, Key: key})
		if err != nil {
			b.Fatal(err)
		}
		env = AppendBatchItem(env, enc)
	}
	body, err := EncodeRequest(Request{Op: OpBatch, Value: env})
	if err != nil {
		b.Fatal(err)
	}
	var fh FrameHandler = protocolFrames{h: kv} // boxed once, as a Server holds it
	w := worker{scratch: getBuf(0)}
	defer func() { putBuf(w.scratch) }()
	resp := warmWorker(b, &w, fh, body)
	if items, err := DecodeBatch(resp.Value); resp.Status != StatusOK || err != nil || items.Len() != reads {
		b.Fatalf("BATCH = %s %v, want %d replies", resp.Status, err, reads)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		putBuf(w.serve(fh, muxFrame{body: body}).free[1])
	}
}

// BenchmarkServeFrameGetVSetV is a replica's read followed by a write
// of the same key: a GETV, then a SETV of a value of the same length,
// each served as a worker serves it. The GETV copies its value into the
// worker's scratch, so the SETV rewrites the record in place and the
// pair allocates nothing.
// scripts/allocgate.sh holds it to 0.
func BenchmarkServeFrameGetVSetV(b *testing.B) {
	kv := NewKVHandler()
	clock := store.NewClock()
	val := make([]byte, 128)
	kv.Engine().Merge("bench", store.Entry{Value: val, Version: clock.Next()})
	getv, err := EncodeRequest(Request{Op: OpGetV, Key: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	fh := protocolFrames{h: kv}
	w := worker{scratch: getBuf(0)}
	defer func() { putBuf(w.scratch) }()
	meta := FrameMeta{w: &w}
	setv := make([]byte, 0, bufMinCap)
	dst := make([]byte, 0, bufMinCap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = fh.ServeFrame(dst[:0], getv, meta)
		setv, _ = AppendRequest(setv[:0], Request{Op: OpSetV, Key: "bench", Value: val, Version: clock.Next()})
		dst = fh.ServeFrame(dst[:0], setv, meta)
	}
	if resp, err := DecodeResponseV(dst); err != nil || resp.Status != StatusOK {
		b.Fatalf("SETV = %+v %v", resp, err)
	}
}

// BenchmarkServeFrameSetV is the same for a SETV frame at a rising
// version, so every one is applied — over a record of the same length,
// which the engine rewrites in place — and its frame's commit is the
// worker's: no allocation. scripts/allocgate.sh holds it to 0.
func BenchmarkServeFrameSetV(b *testing.B) {
	kv := NewKVHandler()
	clock := store.NewClock()
	val := make([]byte, 128)
	fh := protocolFrames{h: kv}
	var w worker
	body := make([]byte, 0, bufMinCap)
	dst := make([]byte, 0, bufMinCap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, _ = AppendRequest(body[:0], Request{Op: OpSetV, Key: "bench", Value: val, Version: clock.Next()})
		dst = fh.ServeFrame(dst[:0], body, FrameMeta{w: &w})
	}
	if resp, err := DecodeResponseV(dst); err != nil || resp.Status != StatusOK {
		b.Fatalf("SETV = %+v %v", resp, err)
	}
}
