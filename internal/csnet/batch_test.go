package csnet

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pdcedu/internal/obs"
	"pdcedu/internal/store"
)

// recordFrames passes every frame through to next and keeps a copy of
// each request body, in arrival order.
type recordFrames struct {
	next FrameHandler
	mu   sync.Mutex
	seen [][]byte
}

func (r *recordFrames) ServeFrame(dst, body []byte, meta FrameMeta) []byte {
	r.mu.Lock()
	r.seen = append(r.seen, bytes.Clone(body))
	r.mu.Unlock()
	return r.next.ServeFrame(dst, body, meta)
}

func (r *recordFrames) frames() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen
}

func mergeReq(i int, value []byte) Request {
	return Request{Op: OpMerge, Key: fmt.Sprintf("k%05d", i), Value: value, Version: uint64(1000 + i)}
}

// TestBatchOfOneIsThePlainFrame pins the choice Batch makes by group
// size alone: one entry travels as exactly the frame Client.Send
// writes, two as one OpBatch envelope holding both encodings.
func TestBatchOfOneIsThePlainFrame(t *testing.T) {
	rec := &recordFrames{next: protocolFrames{NewKVHandler()}}
	cl := startFrames(t, rec)
	a, b := mergeReq(1, []byte("one")), mergeReq(2, []byte("two"))

	batch := cl.Batch()
	batch.Add(a)
	batch.Send()
	if resp, err := batch.NextV(); err != nil || resp.Status != StatusOK || resp.Version != a.Version {
		t.Fatalf("lone entry: %+v %v", resp, err)
	}
	if _, err := batch.NextV(); err == nil {
		t.Fatal("NextV past the last entry returned no error")
	}
	plain, _ := EncodeRequest(a)
	if got := rec.frames(); len(got) != 1 || !bytes.Equal(got[0], plain) {
		t.Fatalf("a batch of one sent %x, want the plain frame %x", got, plain)
	}

	batch = cl.Batch()
	batch.Add(a)
	batch.Add(b)
	batch.Send()
	for _, want := range []Request{a, b} {
		// a is already resident at its version: the merge loses the tie.
		if resp, err := batch.NextV(); err != nil || resp.Version != want.Version {
			t.Fatalf("entry %s: %+v %v", want.Key, resp, err)
		}
	}
	encA, _ := EncodeRequest(a)
	encB, _ := EncodeRequest(b)
	body := AppendBatchItem(AppendBatchItem(AppendBatchHeader(nil, 2), encA), encB)
	envelope, _ := EncodeRequest(Request{Op: OpBatch, Value: body})
	if got := rec.frames(); len(got) != 2 || !bytes.Equal(got[1], envelope) {
		t.Fatalf("a batch of two sent %x, want the envelope %x", got[1:], envelope)
	}
}

// TestBatchRepliesInOrderAcrossFrames sends more than one frame's
// worth of entries — a rejected one and an unsendable one among them —
// and holds NextV to Add order, frames to muxBufSize, and the server's
// books to one op per entry.
func TestBatchRepliesInOrderAcrossFrames(t *testing.T) {
	rec := &recordFrames{next: protocolFrames{NewKVHandler()}}
	cl := startFrames(t, rec)
	const n = 700
	value := bytes.Repeat([]byte{'v'}, 200) // ~230 B an entry: three frames
	merges, bytesIn := csnetM.ops[OpMerge].Value(), csnetM.bytesIn.Value()
	frames := csnetM.batchEntries.Snapshot()

	batch := cl.Batch()
	var wantIn uint64
	for i := 0; i < n; i++ {
		req := mergeReq(i, value)
		switch i {
		case 300:
			req.Version = 0 // the handler refuses a merge without a version
		case 400:
			req.Key = strings.Repeat("k", 70000) // cannot be encoded at all
		}
		if enc, err := EncodeRequest(req); err == nil {
			wantIn += uint64(len(enc))
		}
		batch.Add(req)
	}
	batch.Send()
	for i := 0; i < n; i++ {
		resp, err := batch.NextV()
		switch i {
		case 300:
			if err != nil || resp.Status != StatusError {
				t.Fatalf("entry %d: %+v %v, want the handler's StatusError", i, resp, err)
			}
		case 400:
			if err == nil {
				t.Fatalf("entry %d: over-long key was sent: %+v", i, resp)
			}
		default:
			if err != nil || resp.Status != StatusOK || resp.Version != uint64(1000+i) {
				t.Fatalf("entry %d: %+v %v", i, resp, err)
			}
		}
	}
	for i, f := range rec.frames() {
		if len(f) > muxBufSize {
			t.Errorf("frame %d is %d bytes, over muxBufSize", i, len(f))
		}
	}
	if d := csnetM.ops[OpMerge].Value() - merges; d != n-1 {
		t.Errorf("csnet.server.ops.MERGE grew by %d, want %d (one per entry sent)", d, n-1)
	}
	if d := csnetM.bytesIn.Value() - bytesIn; d != wantIn {
		t.Errorf("csnet.server.bytes_in grew by %d, want %d (the entries' own encodings)", d, wantIn)
	}
	after := csnetM.batchEntries.Snapshot()
	if after.Count-frames.Count < 3 || after.Sum-frames.Sum != n-1 {
		t.Errorf("csnet.server.batch_entries took %d samples summing %d, want >= 3 summing %d",
			after.Count-frames.Count, after.Sum-frames.Sum, n-1)
	}
}

// replySizes passes every frame through to next and keeps the length
// of each reply it answers with, in order.
type replySizes struct {
	next  FrameHandler
	mu    sync.Mutex
	sizes []int
}

func (r *replySizes) ServeFrame(dst, body []byte, meta FrameMeta) []byte {
	out := r.next.ServeFrame(dst, body, meta)
	r.mu.Lock()
	r.sizes = append(r.sizes, len(out)-len(dst))
	r.mu.Unlock()
	return out
}

// take returns the lengths kept so far and starts a new list.
func (r *replySizes) take() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	sizes := r.sizes
	r.sizes = nil
	return sizes
}

// TestBatchReadBurstCutByItsReplies: a Batch of GETVs whose values
// total several times muxBufSize is cut by the replies it draws — each
// read taken to be as long as the longest read reply the Client has
// decoded — and not by its few request bytes, so every reply frame
// fits muxBufSize and none is dropped instead of recycled; NextV still
// hands the values back in Add order.
func TestBatchReadBurstCutByItsReplies(t *testing.T) {
	const n, size = 600, 400
	kv := NewKVHandler()
	sizes := &replySizes{next: protocolFrames{kv}}
	cl := startFrames(t, sizes)
	value := func(i int) []byte {
		return append([]byte(fmt.Sprintf("%04d:", i)), payload(size, i)...)
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("read-%04d", i)
		kv.Engine().Set(keys[i], value(i))
	}
	// One read first: a Client that has decoded none cannot tell what a
	// read draws.
	warm := cl.Batch()
	warm.Add(Request{Op: OpGetV, Key: keys[0]})
	warm.Send()
	if resp, err := warm.NextV(); err != nil || !bytes.Equal(resp.Value, value(0)) {
		t.Fatalf("first read = %+v %v", resp, err)
	}
	sizes.take()
	oversize := csnetM.replyOversize.Value()

	batch := cl.Batch()
	for _, k := range keys {
		batch.Add(Request{Op: OpGetV, Key: k})
	}
	batch.Send()
	for i := range keys {
		resp, err := batch.NextV()
		if err != nil || resp.Status != StatusOK || !bytes.Equal(resp.Value, value(i)) {
			t.Fatalf("read %d: %s %q %v, want its own value", i, resp.Status, resp.Value[:min(8, len(resp.Value))], err)
		}
	}
	frames := sizes.take()
	total := 0
	for i, sz := range frames {
		if sz > muxBufSize {
			t.Errorf("reply frame %d is %d bytes, over muxBufSize", i, sz)
		}
		total += sz
	}
	if total < n*size || len(frames) < (total+muxBufSize-1)/muxBufSize {
		t.Errorf("%d reads answered in %d frames of %d bytes in all", n, len(frames), total)
	}
	if d := csnetM.replyOversize.Value() - oversize; d != 0 {
		t.Errorf("csnet.server.reply_oversize grew by %d over a burst cut to fit, want 0", d)
	}
}

// TestReplyOversizeCounted: csnet.server.reply_oversize counts exactly
// the replies that outgrew muxBufSize — an echo of one byte more — and
// not one that fits it, wherever it was built.
func TestReplyOversizeCounted(t *testing.T) {
	cl := startFrames(t, protocolFrames{NewKVHandler()})
	for _, tc := range []struct {
		n    int
		want uint64
	}{{1, 0}, {4 << 10, 0}, {muxBufSize - 64, 0}, {muxBufSize + 1, 1}, {300 << 10, 1}} {
		before := csnetM.replyOversize.Value()
		resp, err := cl.Send(Request{Op: OpEcho, Value: payload(tc.n, 3)}).Response()
		if err != nil || !bytes.Equal(resp.Value, payload(tc.n, 3)) {
			t.Fatalf("echo of %d bytes: %v %v", tc.n, resp.Status, err)
		}
		if d := csnetM.replyOversize.Value() - before; d != tc.want {
			t.Errorf("echo of %d bytes: reply_oversize grew by %d, want %d", tc.n, d, tc.want)
		}
	}
}

// oldPeerFrames is a build from before OpBatch: the envelope decodes
// as a request with an op it does not know.
type oldPeerFrames struct{ next FrameHandler }

func (o oldPeerFrames) ServeFrame(dst, body []byte, meta FrameMeta) []byte {
	if len(body) > 0 && Op(body[0]) == OpBatch {
		return AppendResponse(dst, Response{Status: StatusError, Value: []byte(fmt.Sprintf("unknown op %d", OpBatch))})
	}
	return o.next.ServeFrame(dst, body, meta)
}

// TestBatchDeclinedByOldPeer: a peer that does not know OpBatch answers
// the envelope once, and every entry reads that answer — a response,
// not an error, so a caller sees a live peer declining.
func TestBatchDeclinedByOldPeer(t *testing.T) {
	kv := NewKVHandler()
	cl := startFrames(t, oldPeerFrames{protocolFrames{kv}})
	batch := cl.Batch()
	for i := 0; i < 5; i++ {
		batch.Add(mergeReq(i, []byte("v")))
	}
	batch.Send()
	for i := 0; i < 5; i++ {
		resp, err := batch.NextV()
		if err != nil || resp.Status != StatusError || !strings.Contains(string(resp.Value), "unknown op") {
			t.Fatalf("entry %d: %+v %v, want StatusError \"unknown op\" and no error", i, resp, err)
		}
	}
	if kv.Len() != 0 {
		t.Fatalf("%d keys applied by a peer that declined the batch", kv.Len())
	}
	// The same peer still takes the entries one at a time.
	batch = cl.Batch()
	batch.Add(mergeReq(0, []byte("v")))
	batch.Send()
	if resp, err := batch.NextV(); err != nil || resp.Status != StatusOK {
		t.Fatalf("plain frame to the old peer: %+v %v", resp, err)
	}
}

// shortReplyFrames serves a batch honestly, then drops the last drop
// responses from the reply.
type shortReplyFrames struct {
	next FrameHandler
	drop int
}

func (s shortReplyFrames) ServeFrame(dst, body []byte, meta FrameMeta) []byte {
	out := s.next.ServeFrame(dst, body, meta)
	if Op(body[0]) != OpBatch {
		return out
	}
	env, err := DecodeResponse(out[len(dst):])
	if err != nil {
		panic(err)
	}
	items, _ := DecodeBatch(env.Value)
	short := AppendBatchHeader(nil, items.Len()-s.drop)
	for items.Len() > s.drop {
		item, _ := items.Next()
		short = AppendBatchItem(short, item)
	}
	return AppendResponse(dst, Response{Status: StatusOK, Value: short})
}

// TestBatchShortReply: a reply with fewer responses than the frame had
// entries acks exactly the ones it carries and fails the missing tail.
func TestBatchShortReply(t *testing.T) {
	cl := startFrames(t, shortReplyFrames{protocolFrames{NewKVHandler()}, 2})
	batch := cl.Batch()
	for i := 0; i < 6; i++ {
		batch.Add(mergeReq(i, []byte("v")))
	}
	batch.Send()
	for i := 0; i < 6; i++ {
		resp, err := batch.NextV()
		if i < 4 && (err != nil || resp.Status != StatusOK) {
			t.Fatalf("entry %d: %+v %v, want its ack", i, resp, err)
		}
		if i >= 4 && err == nil {
			t.Fatalf("entry %d was acked %+v by a reply that did not carry it", i, resp)
		}
	}
}

// TestBatchLostConnection: a connection closed after some of a burst's
// replies were read fails every entry still to be read with the
// transport error, whether its frame was answered yet or not.
func TestBatchLostConnection(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate) // before startFrames' cleanup waits for the handlers
	cl := startFrames(t, protocolFrames{refuseBad(gate)})
	batch := cl.Batch()
	batch.Add(mergeReq(1, []byte("v")))
	batch.Send()
	for i := 0; i < 3; i++ {
		batch.Add(Request{Op: OpMerge, Key: fmt.Sprintf("slow-%d", i), Value: []byte("v"), Version: 9})
	}
	batch.Send()
	batch.Add(Request{Op: OpMerge, Key: "slow-alone", Value: []byte("v"), Version: 9})
	batch.Send()
	if resp, err := batch.NextV(); err != nil || resp.Status != StatusOK {
		t.Fatalf("entry 0: %+v %v, want its ack", resp, err)
	}
	cl.Close()
	for i := 1; i < 5; i++ {
		if resp, err := batch.NextV(); !errors.Is(err, ErrClientClosed) {
			t.Fatalf("entry %d: %+v %v, want ErrClientClosed", i, resp, err)
		}
	}
}

// TestBatchRefusedWhole: an envelope whose body does not parse is
// refused before any entry runs, and a nested envelope is an unknown op
// to the handler.
func TestBatchRefusedWhole(t *testing.T) {
	kv := NewKVHandler()
	p := protocolFrames{kv}
	good, _ := EncodeRequest(mergeReq(1, []byte("v")))
	body := AppendBatchItem(AppendBatchHeader(nil, 2), good)
	body = append(body, 0, 0, 0, 9, 'x') // second item claims 9 bytes, has 1
	env, _ := EncodeRequest(Request{Op: OpBatch, Value: body})
	resp, err := DecodeResponse(p.ServeFrame(nil, env, FrameMeta{}))
	if err != nil || resp.Status != StatusError {
		t.Fatalf("truncated envelope: %+v %v, want StatusError", resp, err)
	}
	if kv.Len() != 0 {
		t.Fatal("an entry of a malformed envelope was applied")
	}

	inner, _ := EncodeRequest(Request{Op: OpBatch, Value: AppendBatchHeader(nil, 0)})
	env, _ = EncodeRequest(Request{Op: OpBatch, Value: AppendBatchItem(AppendBatchHeader(nil, 1), inner)})
	resp, err = DecodeResponse(p.ServeFrame(nil, env, FrameMeta{}))
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("envelope holding an envelope: %+v %v", resp, err)
	}
	items, _ := DecodeBatch(resp.Value)
	item, _ := items.Next()
	if r, err := DecodeResponse(item); err != nil || r.Status != StatusError || !strings.Contains(string(r.Value), "unknown op") {
		t.Fatalf("nested envelope answered %+v %v, want StatusError \"unknown op\"", r, err)
	}
}

// failSyncFile is the store's WALFile seam with an fsync that fails
// once told to.
type failSyncFile struct {
	*os.File
	fail *atomic.Bool
}

func (f failSyncFile) Sync() error {
	if f.fail.Load() {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

// batchEnvelope encodes n SETV entries, versions counting up from
// version, as one OpBatch request frame.
func batchEnvelope(t testing.TB, n int, version uint64) []byte {
	body := AppendBatchHeader(nil, n)
	for i := 0; i < n; i++ {
		enc, err := EncodeRequest(Request{Op: OpSetV, Key: fmt.Sprintf("k%05d", i), Value: []byte("value"), Version: version + uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		body = AppendBatchItem(body, enc)
	}
	env, err := EncodeRequest(Request{Op: OpBatch, Value: body})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// batchStatuses serves env and returns each entry's status.
func batchStatuses(t *testing.T, p protocolFrames, env []byte) []Status {
	t.Helper()
	resp, err := DecodeResponse(p.ServeFrame(nil, env, FrameMeta{}))
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("batch reply: %+v %v", resp, err)
	}
	items, err := DecodeBatch(resp.Value)
	if err != nil {
		t.Fatal(err)
	}
	var out []Status
	for items.Len() > 0 {
		item, err := items.Next()
		if err != nil {
			t.Fatal(err)
		}
		r, err := DecodeResponseV(item)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r.Status)
	}
	return out
}

// TestBatchWaitsForDurabilityOnce is the one-wait rule: under
// FsyncAlways a 256-entry frame costs one group commit, not 256 — and
// when the log fails under the frame, no entry's ack stands.
func TestBatchWaitsForDurabilityOnce(t *testing.T) {
	var fail atomic.Bool
	eng := failingEngine(t, store.FsyncAlways, &fail)
	p := protocolFrames{NewKVHandlerOn(eng)}
	const n = 256
	fsyncs := obs.Default().Counter("store.wal.fsyncs")
	before := fsyncs.Value()
	for i, st := range batchStatuses(t, p, batchEnvelope(t, n, 1000)) {
		if st != StatusOK {
			t.Fatalf("entry %d: %s", i, st)
		}
	}
	if d := fsyncs.Value() - before; d < 1 || d > 2 {
		t.Errorf("a %d-entry batch moved store.wal.fsyncs by %d, want 1 or 2", n, d)
	}
	if eng.Len() != n {
		t.Fatalf("engine holds %d keys, want %d", eng.Len(), n)
	}

	// The same frame at newer versions, with the disk now failing: the
	// wait at the end of the frame is where the failure shows, after
	// every entry has been applied and its ack encoded.
	fail.Store(true)
	for i, st := range batchStatuses(t, p, batchEnvelope(t, n, 2000)) {
		if st != StatusError {
			t.Fatalf("entry %d acked %s over a log that failed to sync", i, st)
		}
	}
	if eng.Err() == nil {
		t.Fatal("failed fsync did not poison the engine")
	}
}

// engineOver opens an engine under fsync whose log segments are the
// files wrap makes of them, closed when the test ends.
func engineOver(t testing.TB, fsync store.FsyncPolicy, wrap func(*os.File) store.WALFile) *store.Sharded {
	eng, err := store.OpenSharded(store.Options{}, store.WALOptions{
		Dir: t.TempDir(), Fsync: fsync,
		OpenFile: func(path string) (store.WALFile, error) {
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			return wrap(f), err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// failingEngine is an engine under fsync whose log's fsync fails once
// fail is set.
func failingEngine(t testing.TB, fsync store.FsyncPolicy, fail *atomic.Bool) *store.Sharded {
	return engineOver(t, fsync, func(f *os.File) store.WALFile { return failSyncFile{f, fail} })
}

// TestOneDurabilityVerdictPerFrame is the one rule for every served
// frame, plain or batch, under either policy that syncs: a frame that
// wrote waits for the log once, and over a log that failed none of its
// acks stands, while a frame that only reads answers from memory, alone
// or in a burst. A request handed to the handler outside any frame is
// held to the same rule.
func TestOneDurabilityVerdictPerFrame(t *testing.T) {
	for _, policy := range []store.FsyncPolicy{store.FsyncAlways, store.FsyncInterval} {
		t.Run(policy.String(), func(t *testing.T) {
			var fail atomic.Bool
			eng := failingEngine(t, policy, &fail)
			kv := NewKVHandlerOn(eng)
			p := protocolFrames{kv}
			w := worker{scratch: getBuf(0)}
			defer func() { putBuf(w.scratch) }()
			serve := func(r Request) Response {
				t.Helper()
				body, err := EncodeRequest(r)
				if err != nil {
					t.Fatal(err)
				}
				reply := p.ServeFrame(nil, body, FrameMeta{w: &w})
				resp, err := DecodeResponseV(reply)
				if r.Op == OpBatch {
					resp, err = DecodeResponse(reply)
				}
				if err != nil {
					t.Fatal(err)
				}
				return resp
			}
			eng.Set("a", []byte("va"))
			eng.Set("b", []byte("vb"))
			pver := eng.Set("p", []byte("vp"))
			if err := eng.Sync(); err != nil {
				t.Fatal(err)
			}

			fsyncs := obs.Default().Counter("store.wal.fsyncs")
			before := fsyncs.Value()
			if resp := serve(Request{Op: OpSetV, Key: "w", Value: []byte("x")}); resp.Status != StatusOK {
				t.Fatalf("SETV over a healthy log = %+v", resp)
			}
			if d := fsyncs.Value() - before; policy == store.FsyncAlways && d != 1 {
				t.Errorf("a plain SETV frame under %s moved store.wal.fsyncs by %d, want 1", policy, d)
			}

			fail.Store(true)
			eng.Set("poison", []byte("p"))
			if eng.Sync() == nil || eng.Err() == nil {
				t.Fatal("failed fsync did not poison the engine")
			}
			for _, r := range []Request{
				{Op: OpSetV, Key: "w", Value: []byte("y"), Version: store.NewClock().Next()},
				{Op: OpDelV, Key: "w"},
				{Op: OpMerge, Key: "m", Value: []byte("z"), Version: store.NewClock().Next()},
				{Op: OpPurgeV, Key: "p", Version: pver},
			} {
				if resp := serve(r); resp.Status != StatusError {
					t.Errorf("plain %s frame over a failed log = %s, want %s", r.Op, resp.Status, StatusError)
				}
				if resp := kv.Serve(r); resp.Status != StatusError {
					t.Errorf("%s handed to Serve outside a frame over a failed log = %s, want %s", r.Op, resp.Status, StatusError)
				}
			}

			if resp := serve(Request{Op: OpGetV, Key: "a"}); resp.Status != StatusOK || string(resp.Value) != "va" {
				t.Errorf("plain GETV over a failed log = %s %q, want OK \"va\"", resp.Status, resp.Value)
			}
			// A burst that only reads never waits; one that wrote is
			// refused whole, as its one verdict is the log's.
			for _, c := range []struct {
				name string
				reqs []Request
				want []string // each entry's value, "" for refused
			}{
				{"GETV burst", []Request{{Op: OpGetV, Key: "a"}, {Op: OpGetV, Key: "b"}}, []string{"va", "vb"}},
				{"GETV, SETV burst", []Request{{Op: OpGetV, Key: "a"}, {Op: OpSetV, Key: "w", Value: []byte("y")}}, []string{"", ""}},
			} {
				burst := AppendBatchHeader(nil, len(c.reqs))
				for _, r := range c.reqs {
					enc, err := EncodeRequest(r)
					if err != nil {
						t.Fatal(err)
					}
					burst = AppendBatchItem(burst, enc)
				}
				resp := serve(Request{Op: OpBatch, Value: burst})
				items, err := DecodeBatch(resp.Value)
				if resp.Status != StatusOK || err != nil || items.Len() != len(c.want) {
					t.Fatalf("%s = %s %v, %d replies", c.name, resp.Status, err, items.Len())
				}
				for i, want := range c.want {
					item, err := items.Next()
					if err != nil {
						t.Fatal(err)
					}
					st := StatusOK
					if want == "" {
						st = StatusError
					}
					if r, err := DecodeResponseV(item); err != nil || r.Status != st || st == StatusOK && string(r.Value) != want {
						t.Errorf("%s entry %d = %s %q %v, want %s %q", c.name, i, r.Status, r.Value, err, st, want)
					}
				}
			}
		})
	}
}

// noSyncFile is a log segment whose fsync returns at once, so a
// benchmark under FsyncAlways times the commit path and no disk.
type noSyncFile struct{ *os.File }

func (noSyncFile) Sync() error { return nil }

// BenchmarkServeFrameSetVAlways is a warm worker serving, under
// FsyncAlways, a plain SETV frame and a 64-entry SETV batch frame, each
// over resident keys of the same length: each frame waits for the log
// once, through the deferred engine view the worker keeps from frame to
// frame, and rewrites its records in place, so neither allocates.
// scripts/allocgate.sh holds it to 0.
func BenchmarkServeFrameSetVAlways(b *testing.B) {
	eng := engineOver(b, store.FsyncAlways, func(f *os.File) store.WALFile { return noSyncFile{f} })
	const entries = 64
	val := make([]byte, 128)
	plain, err := EncodeRequest(Request{Op: OpSetV, Key: "plain", Value: val}) // server-stamped: always applied
	if err != nil {
		b.Fatal(err)
	}
	env := AppendBatchHeader(nil, entries)
	for i := 0; i < entries; i++ {
		enc, err := EncodeRequest(Request{Op: OpSetV, Key: fmt.Sprintf("batch-%02d", i), Value: val})
		if err != nil {
			b.Fatal(err)
		}
		env = AppendBatchItem(env, enc)
	}
	batch, err := EncodeRequest(Request{Op: OpBatch, Value: env})
	if err != nil {
		b.Fatal(err)
	}
	var fh FrameHandler = protocolFrames{h: NewKVHandlerOn(eng)} // boxed once, as a Server holds it
	w := worker{scratch: getBuf(0)}
	defer func() { putBuf(w.scratch) }()
	if resp := warmWorker(b, &w, fh, plain); resp.Status != StatusOK {
		b.Fatalf("SETV = %s %q", resp.Status, resp.Value)
	}
	if resp := warmWorker(b, &w, fh, batch); resp.Status != StatusOK {
		b.Fatalf("BATCH = %s %q", resp.Status, resp.Value)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		putBuf(w.serve(fh, muxFrame{body: plain}).free[1])
		putBuf(w.serve(fh, muxFrame{body: batch}).free[1])
	}
	b.StopTimer()
	if err := eng.Err(); err != nil {
		b.Fatal(err)
	}
}

// TestBatchServeAllocations: an entry of a batch frame costs the server
// what it costs alone — the key string and the engine's value copy —
// and the envelope a constant.
func TestBatchServeAllocations(t *testing.T) {
	p := protocolFrames{NewKVHandler()}
	const n = 100
	env := batchEnvelope(t, n, 1000)
	dst := make([]byte, 0, 8<<10)
	p.ServeFrame(dst, env, FrameMeta{}) // the keys now exist: no map growth below
	allocs := testing.AllocsPerRun(50, func() { p.ServeFrame(dst, env, FrameMeta{}) })
	// Replays lose the merge (same version), so not even the value is
	// copied: the key string per entry, the Commit per frame.
	if allocs > n+1 {
		t.Errorf("serving a %d-entry batch allocates %.0f times, want <= %d", n, allocs, n+1)
	}
}
