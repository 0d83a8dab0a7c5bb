package csnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pdcedu/internal/obs"
	"pdcedu/internal/store"
	"pdcedu/internal/trace"
)

// Handler processes one request; implementations must be safe for
// concurrent use (the server runs one goroutine per connection).
type Handler interface {
	Serve(Request) Response
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(Request) Response

// Serve implements Handler.
func (f HandlerFunc) Serve(r Request) Response { return f(r) }

// FrameMeta is what the server hands a FrameHandler beside a frame:
// the worker serving it, whose state — scratch, bucket set, queue wait,
// commit — the key-value protocol serves the frame with. It has no
// exported field; the zero FrameMeta, a frame served outside a server,
// is served on a throwaway worker.
type FrameMeta struct {
	w *worker
}

// FrameHandler processes one raw request frame. It is the layer below
// Handler: protocols that are not the binary key-value protocol (e.g.
// the dist RPC middleware) plug in here and reuse the server's
// connection machinery unchanged. Implementations must be safe for
// concurrent use.
//
// ServeFrame is append-style: it appends the response frame to dst and
// returns the extended slice. Both buffers are the transport's (see the
// ownership rule in mux.go): body is valid until the response has been
// written, so the response may alias it — or be it — and nothing of
// body or dst may be retained after that; a handler keeps what it needs
// by copying. A reply that outgrows dst is wherever append (or the
// handler, from getBuf) moved it, and that array becomes the
// transport's in dst's place: the worker hands dst back at once and the
// reply once it is written, so a reply up to muxBufSize is recycled
// like dst would have been. A handler therefore returns dst, dst grown,
// or a piece of body — never memory it keeps or shares.
type FrameHandler interface {
	ServeFrame(dst, body []byte, meta FrameMeta) []byte
}

// protocolFrames adapts a key-value Handler to the frame layer.
type protocolFrames struct {
	h Handler
}

// ServeFrame implements FrameHandler: one request, or one OpBatch
// envelope of them, served on the worker meta names — a throwaway one
// outside a server. A reply too large for a frame is answered
// StatusError instead, so it fails its own call and not the connection
// every other call shares.
func (p protocolFrames) ServeFrame(dst, body []byte, meta FrameMeta) []byte {
	w := meta.w
	if w == nil {
		w = new(worker)
	}
	out := p.serve(dst, body, w, false)
	if len(out)-len(dst) > MaxFrameSize {
		out = appendUndecoded(dst, body, Response{Status: StatusError, Value: []byte(ErrFrameTooLarge.Error())})
	}
	return out
}

// serve answers one encoded request in the framing its op calls for
// (appendReply). Every request — a frame of its own or an entry of a
// batch frame — is counted into the per-op request/latency/byte
// metrics under its own op; the timer spans decode through encode, so
// the histograms report what the client actually waited on the server,
// not just the handler body. A frame of its own is a batch of one: it
// ends with the worker's commit (see commit), so a write's ack stands
// only if the wait for the log returns nil. Its reply is encoded into
// dst, or when dst has no room for it into a transport buffer that has
// (roomFor); a batch entry's grows the batch's reply by append.
func (p protocolFrames) serve(dst, body []byte, w *worker, entry bool) []byte {
	start := obs.StartTimer()
	req, err := DecodeRequest(body)
	if err != nil {
		csnetM.decodeEr.Inc()
		csnetM.ops[0].Inc() // the op byte is untrusted after a failed decode
		csnetM.bytesIn.Add(uint64(len(body)))
		return appendUndecoded(dst, body, Response{Status: StatusError, Value: []byte(err.Error())})
	}
	if req.Op == OpBatch && !entry {
		return p.serveBatch(dst, req.Value, w)
	}
	req.w = w
	resp := p.h.Serve(req)
	if !entry {
		if err := w.commit.wait(); err != nil {
			resp = Response{Status: StatusError, Value: []byte(err.Error())}
		}
		dst = roomFor(dst, replySize(req.Op, resp))
	}
	out := appendReply(dst, req.Op, resp)
	slot := opSlot(req.Op)
	csnetM.ops[slot].Inc()
	csnetM.bytesIn.Add(uint64(len(body)))
	csnetM.bytesOut.Add(uint64(len(out) - len(dst)))
	if !start.IsZero() {
		d := time.Since(start)
		csnetM.latency[slot].Observe(d.Nanoseconds())
		noteSlowOp(req.Op, req.Key, d, req.Trace.TraceID)
	}
	return out
}

// writes reports whether op is a write: the ops whose ack is a promise
// about the log, which the frame's commit must keep.
func writes(op Op) bool {
	switch op {
	case OpSetV, OpDelV, OpMerge, OpPurgeV:
		return true
	}
	return false
}

// batchReplyGuess is the reply bytes a batch entry is sized for up
// front: a length prefix and a versioned write's ack.
const batchReplyGuess = 4 + 5 + versionTrailerSize + 8

// batchReplyHeader is what precedes the items of an OpBatch reply:
// status(1) valLen(4) count(4).
const batchReplyHeader = 1 + 4 + 4

// serveBatch answers an OpBatch envelope: every entry goes through
// serve as a frame of its own would — an entry that is itself a batch
// reaches the handler and is refused as an unknown op — and then the
// frame ends with the worker's commit. An envelope that does not parse
// is refused whole, before any entry runs. If the commit reports the
// log lost, no ack of the frame stands: every entry is answered
// StatusError.
//
// The reply is built where it fits from the start (roomFor): a write's
// ack is batchReplyGuess, and a read's is as long as its value, which
// the envelope does not say — so a frame with a read in it is built in
// a buffer of muxBufSize, the most a Batch lets a frame's replies draw.
func (p protocolFrames) serveBatch(dst, body []byte, w *worker) []byte {
	items, err := DecodeBatch(body)
	reads := false
	for it := items; err == nil && it.Len() > 0; {
		var item []byte
		item, err = it.Next()
		reads = reads || len(item) > 0 && Op(item[0]) == OpGetV
	}
	if err != nil {
		csnetM.decodeEr.Inc()
		csnetM.ops[0].Inc()
		csnetM.bytesIn.Add(uint64(len(body)))
		return AppendResponse(dst, Response{Status: StatusError, Value: []byte(err.Error())})
	}
	csnetM.batchEntries.Observe(int64(items.Len()))
	room := batchReplyHeader + items.Len()*batchReplyGuess
	if reads {
		room = max(room, muxBufSize-len(dst))
	}
	out := p.appendBatchReply(roomFor(dst, room), items, w, nil)
	if err := w.commit.wait(); err != nil {
		out = p.appendBatchReply(out[:len(dst)], items, w, &Response{Status: StatusError, Value: []byte(err.Error())})
	}
	return out
}

// appendBatchReply appends the response frame of a batch: every item
// answered by serve, or — the log having failed under the frame —
// refused with lost.
func (p protocolFrames) appendBatchReply(dst []byte, items BatchItems, w *worker, lost *Response) []byte {
	// status(1) valLen(4) count(4) items; valLen is patched in last.
	out := append(dst, byte(StatusOK), 0, 0, 0, 0) // batchReplyHeader
	out = AppendBatchHeader(out, items.Len())
	for items.Len() > 0 {
		item, _ := items.Next() // serveBatch walked the envelope clean
		mark := len(out)
		out = append(out, 0, 0, 0, 0)
		if lost != nil {
			out = appendUndecoded(out, item, *lost)
		} else {
			out = p.serve(out, item, w, true)
		}
		binary.BigEndian.PutUint32(out[mark:], uint32(len(out)-mark-4))
	}
	binary.BigEndian.PutUint32(out[len(dst)+1:], uint32(len(out)-len(dst)-5))
	return out
}

// commit is the one durability wait of a served frame, plain or batch,
// and the one place a served write reads the log's verdict. A KVHandler
// serves the frame's entries through its view (kv over a deferred view
// of its engine, see store.Sharded.Deferred), whose writes are applied
// and logged but not waited for; the frame then waits once, after its
// last entry, and only if one of them was a write, so a frame that only
// reads answers from memory. The worker keeps the view from frame to
// frame, so a frame allocates none.
type commit struct {
	base  *KVHandler // the handler the view was made for
	kv    *KVHandler // base over a deferred view of its engine, or base where nothing waits
	wrote bool       // an entry of the frame being served is a write
}

// view returns the handler an entry of op is served by — made anew
// only when a different handler serves — and notes whether it writes.
func (c *commit) view(kv *KVHandler, op Op) *KVHandler {
	c.wrote = c.wrote || writes(op)
	if c.base != kv {
		c.base, c.kv = kv, kv
		if eng := kv.eng.Deferred(); eng != kv.eng {
			v := *kv
			v.eng = eng
			c.kv = &v
		}
	}
	return c.kv
}

// wait ends the frame: if it wrote, it blocks until the frame's writes
// are as durable as the fsync policy promises and reports whether their
// acks may stand.
func (c *commit) wait() error {
	if !c.wrote {
		return nil
	}
	c.wrote = false
	return c.kv.eng.Wait()
}

// Server is a concurrent framed-protocol TCP server.
type Server struct {
	frames   FrameHandler
	maxConns int

	// Admission control (SetAdmission). Both default to zero — no
	// shedding — so a server that never opts in is byte-identical to a
	// pre-busy build and never emits StatusBusy.
	shedQueue   int          // per-conn worker queue depth to shed beyond (0 = block)
	maxInflight int64        // server-wide admitted-frame budget (0 = unbounded)
	inflight    atomic.Int64 // frames admitted and not yet answered

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	shutdown bool
	wg       sync.WaitGroup
}

// SetAdmission enables overload shedding; call it before Start.
// queueDepth bounds each connection's worker queue: a frame arriving
// while the queue is full is answered StatusBusy immediately instead
// of queueing (0 keeps the pre-busy behavior — the read loop blocks,
// pushing backpressure into TCP). maxInflight is a server-wide budget
// on frames admitted but not yet answered, across every connection;
// past it, new frames are shed the same way. A shed request is never
// silently dropped — the caller always receives the typed busy
// response — and never reaches the handler, so it has no effect and is
// safe to retry. This is what keeps p99 bounded past capacity: the
// queues that would otherwise grow without bound are capped, and the
// excess is converted into fast, explicit busy replies the client can
// back off on (see ErrBusy).
func (s *Server) SetAdmission(queueDepth, maxInflight int) {
	if queueDepth < 0 {
		queueDepth = 0
	}
	if maxInflight < 0 {
		maxInflight = 0
	}
	s.shedQueue = queueDepth
	s.maxInflight = int64(maxInflight)
}

// admit reserves one slot of the server-wide in-flight budget;
// release returns it. With the budget disabled both are free.
func (s *Server) admit() bool {
	if s.maxInflight <= 0 {
		return true
	}
	n := s.inflight.Add(1)
	if n > s.maxInflight {
		s.inflight.Add(-1)
		return false
	}
	csnetM.inflightHW.SetMax(n)
	return true
}

func (s *Server) release() {
	if s.maxInflight > 0 {
		s.inflight.Add(-1)
	}
}

// appendUndecoded appends resp for a request frame that was not (or
// could not be) decoded — shed before decoding, or malformed — so only
// its op byte is trusted for the framing choice.
func appendUndecoded(dst, body []byte, resp Response) []byte {
	var op Op
	if len(body) > 0 {
		op = Op(body[0])
	}
	return appendReply(dst, op, resp)
}

// NewServer creates a key-value protocol server with the given handler;
// maxConns bounds concurrent connections (0 means 128).
func NewServer(h Handler, maxConns int) *Server {
	return NewFrameServer(protocolFrames{h: h}, maxConns)
}

// NewFrameServer creates a server speaking a custom frame protocol;
// maxConns bounds concurrent connections (0 means 128).
func NewFrameServer(fh FrameHandler, maxConns int) *Server {
	if maxConns <= 0 {
		maxConns = 128
	}
	return &Server{frames: fh, maxConns: maxConns, conns: map[net.Conn]struct{}{}}
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and begins
// accepting connections. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("csnet: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("csnet: server already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	sem := make(chan struct{}, s.maxConns)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			sem <- struct{}{}
			s.mu.Lock()
			if s.shutdown {
				s.mu.Unlock()
				conn.Close()
				<-sem
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer func() {
					s.mu.Lock()
					delete(s.conns, conn)
					s.mu.Unlock()
					conn.Close()
					<-sem
				}()
				s.serveConn(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// serveConn serves one connection in the muxed framing, the only one
// a Server speaks: a connection that does not open with the CSM1
// preamble is counted as a decode error and closed without a reply.
func (s *Server) serveConn(conn net.Conn) {
	var pre [4]byte
	if _, err := io.ReadFull(conn, pre[:]); err != nil {
		return
	}
	if pre != muxMagic {
		csnetM.decodeEr.Inc()
		return
	}
	s.serveMux(conn)
}

// muxConnHandlers bounds concurrently executing handlers per muxed
// connection.
const muxConnHandlers = 32

// serveMux processes sequence-numbered frames with out-of-order
// completion: the read loop feeds a small pool of persistent worker
// goroutines (no per-request spawn) and the shared coalescing frame
// writer (runFrameWriter) batches finished responses into single
// buffered writes. On a write failure the writer closes the connection,
// which unblocks the read loop and tears the whole pipeline down. Each
// request body is a transport buffer that rides its response frame and
// is released by the writer with the response's dst.
func (s *Server) serveMux(conn net.Conn) {
	// With queue shedding enabled the worker queue's capacity IS the
	// shed bound: a frame that cannot be buffered is answered busy
	// rather than parking the read loop.
	queueCap := muxConnHandlers
	if s.shedQueue > 0 {
		queueCap = s.shedQueue
	}
	in := make(chan muxFrame, queueCap)
	out := make(chan muxFrame, 2*muxConnHandlers)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		runFrameWriter(conn, out, nil, 0, func(error) { conn.Close() })
	}()
	var workerWG sync.WaitGroup
	workers := make([]worker, muxConnHandlers) // one allocation a connection, not one a worker
	for i := range workers {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			w := &workers[i]
			w.scratch = getBuf(0)
			defer func() { putBuf(w.scratch) }()
			for f := range in {
				out <- w.serve(s.frames, f)
				s.release()
			}
		}()
	}
	br := bufio.NewReaderSize(conn, muxBufSize)
	hdr := make([]byte, muxHeaderSize)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			break
		}
		seq, n := parseMuxHeader(hdr)
		if n > MaxFrameSize {
			break
		}
		body := getBuf(int(n))
		if _, err := io.ReadFull(br, body); err != nil {
			break
		}
		// Depth after this send = queued + the frame itself; a sustained
		// high water near the queue capacity means the workers, not the
		// wire, are the bottleneck on this connection.
		csnetM.queueHW.SetMax(int64(len(in) + 1))
		f := muxFrame{seq: seq, body: body, at: time.Now()}
		admitted := s.admit()
		if admitted {
			if s.shedQueue > 0 {
				select {
				case in <- f:
				default: // queue full: shed instead of blocking the reader
					s.release()
					admitted = false
				}
			} else {
				in <- f
			}
		}
		if !admitted {
			// Shed, never dropped: the busy reply rides the ordinary
			// response writer, so the caller's Pending always resolves.
			// If the writer is itself backed up, this send blocks — the
			// ceiling admission cannot lift is the client outrunning its
			// own read loop.
			csnetM.shed.Inc()
			dst := getBuf(0)
			out <- muxFrame{seq: seq, body: appendUndecoded(dst, body, Response{Status: StatusBusy}), free: [2][]byte{body, dst}}
		}
	}
	close(in)
	workerWG.Wait()
	close(out)
	writerWG.Wait()
}

// worker is the one home of a served frame's server-side state, kept
// from one frame to the next (the ownership rule in mux.go): its
// scratch, drawn when it starts, regrown by a handler that needs more
// (scratchFor) and released when it exits; the bucket set a listing
// marks; how long the frame it serves waited in the connection's queue;
// and the frame's commit. A frame served outside a server gets a
// throwaway one.
type worker struct {
	scratch   []byte
	want      []bool
	queueWait time.Duration
	commit    commit
}

// serve answers one request frame with fh and returns the reply frame
// for the writer, which releases the request body and the reply's
// buffer once the reply is written. The reply is dst, a transport
// buffer drawn here, unless it was moved: a reply in neither dst's
// array nor body's is one append (or roomFor) moved out of dst, so it
// is released in dst's place and dst goes back now. One that outgrew
// muxBufSize is dropped there instead of recycled, and counted.
func (w *worker) serve(fh FrameHandler, f muxFrame) muxFrame {
	dst := getBuf(0)
	w.queueWait = time.Since(f.at)
	reply := fh.ServeFrame(dst, f.body, FrameMeta{w: w})
	if !within(reply, dst) && !within(reply, f.body) {
		putBuf(dst)
		dst = reply
		if cap(reply) > muxBufSize {
			csnetM.replyOversize.Inc()
		}
	}
	return muxFrame{seq: f.seq, body: reply, free: [2][]byte{f.body, dst}}
}

// roomFor returns dst with room for n more bytes: dst itself when it
// has them, else a transport buffer (getBuf) holding dst's bytes. What
// is appended then lives outside dst, and a worker releases it in dst's
// place (worker.serve).
func roomFor(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(getBuf(len(dst) + n)[:0], dst...)
}

// replySize is the most appendReply appends for resp to a caller of op.
func replySize(op Op, resp Response) int {
	n := 1 + 4 + len(resp.Value)
	if Versioned(op) {
		n += maxTrailerSize
	}
	return n
}

// Shutdown stops accepting, closes every connection and waits for the
// handler goroutines to finish.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.shutdown = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// KVHandler serves the key-value protocol as a thin adapter over a
// store.Sharded. There is one protocol: the versioned ops
// (SETV/GETV/DELV/MERGE/PURGEV), applied last-writer-wins, plus the
// digest and listing ops anti-entropy walks (TREEV/RANGEV). The engine
// locks per shard, so parallel mixed workloads scale past the
// global-lock ceiling.
type KVHandler struct {
	eng *store.Sharded
	trc *trace.Recorder // nil = trace.Default()
}

// NewKVHandler creates a handler over a fresh sharded engine.
func NewKVHandler() *KVHandler {
	return NewKVHandlerOn(store.NewSharded(store.Options{}))
}

// NewKVHandlerOn creates a handler over the given engine, so a node can
// share one engine between the handler and a tombstone-GC sweeper, and
// open it with a write-ahead log.
func NewKVHandlerOn(eng *store.Sharded) *KVHandler {
	return &KVHandler{eng: eng}
}

// WithTracer routes this handler's spans — server handling, engine
// calls — and its OpTraces answers through rec instead of the
// process-global trace.Default(). It is the seam that lets several
// in-process nodes keep distinct trace identities. Returns kv.
func (kv *KVHandler) WithTracer(rec *trace.Recorder) *KVHandler {
	kv.trc = rec
	return kv
}

// tracer returns the recorder this handler reports to.
func (kv *KVHandler) tracer() *trace.Recorder {
	if kv.trc != nil {
		return kv.trc
	}
	return trace.Default()
}

// Engine returns the underlying storage engine.
func (kv *KVHandler) Engine() *store.Sharded { return kv.eng }

// Serve implements Handler. A request carrying a trace context gets a
// server span wrapped around its handling — queue wait split out, the
// context reparented so engine (and deeper) spans hang off it; an
// untraced request skips all of it, never touching the clock. A write
// is served through its frame's commit, which is what decides whether
// its ack stands; a request handed to Serve outside any served frame is
// served as a frame of its own.
func (kv *KVHandler) Serve(req Request) Response {
	if req.w != nil {
		return kv.serveOn(req.w, req)
	}
	var w worker // a throwaway worker; passed beside req, it stays on the stack
	resp := kv.serveOn(&w, req)
	if err := w.commit.wait(); err != nil {
		return Response{Status: StatusError, Value: []byte(err.Error())}
	}
	return resp
}

// serveOn serves req on the worker w, through w's commit.
func (kv *KVHandler) serveOn(w *worker, req Request) Response {
	kv = w.commit.view(kv, req.Op)
	if !req.Trace.Valid() {
		return kv.serve(w, req)
	}
	srv := kv.tracer().StartSpan(req.Trace, trace.KindServer, req.Op.String())
	srv.S.Wait = int64(w.queueWait)
	req.Trace = srv.Context()
	resp := kv.serve(w, req)
	srv.S.Err = resp.Status == StatusError
	srv.Finish()
	return resp
}

func (kv *KVHandler) serve(w *worker, req Request) Response {
	switch req.Op {
	case OpPing:
		return Response{Status: StatusOK, Value: []byte("pong")}
	case OpEcho:
		return Response{Status: StatusOK, Value: req.Value}
	case OpGetV:
		return kv.getV(w, req)
	case OpSetV:
		if req.Version == 0 {
			return Response{Status: StatusOK, Version: kv.eng.Set(req.Key, req.Value)}
		}
		if resp, ok := checkVersion(req.Version); !ok {
			return resp
		}
		return kv.merge(store.Entry{Value: req.Value, Version: req.Version}, req.Key, req.Trace)
	case OpDelV:
		if req.Version == 0 {
			ver, existed := kv.eng.Delete(req.Key)
			resp := Response{Status: StatusOK, Version: ver, Flags: FlagTombstone}
			if !existed {
				resp.Status = StatusNotFound
			}
			return resp
		}
		if resp, ok := checkVersion(req.Version); !ok {
			return resp
		}
		_, cur, ok := kv.eng.AppendLoad(w.scratch[:0], req.Key) // engine-judged liveness, engine's clock
		hadLive := ok && !cur.Tombstone
		resp := kv.merge(store.Entry{Version: req.Version, Tombstone: true}, req.Key, req.Trace)
		if resp.Status == StatusOK && !hadLive {
			// The tombstone landed but displaced nothing readable:
			// report NotFound so a deleter can tell the two apart.
			resp.Status = StatusNotFound
		}
		return resp
	case OpMerge:
		if req.Version == 0 {
			return Response{Status: StatusError, Value: []byte("merge requires a version")}
		}
		if resp, ok := checkVersion(req.Version); !ok {
			return resp
		}
		e := store.Entry{Version: req.Version}
		if req.Flags&FlagTombstone != 0 {
			e.Tombstone = true
		} else {
			e.Value = req.Value
		}
		return kv.merge(e, req.Key, req.Trace)
	case OpPurgeV:
		if kv.eng.Purge(req.Key, req.Version) {
			return Response{Status: StatusOK}
		}
		_, cur, _ := kv.eng.AppendLoad(w.scratch[:0], req.Key)
		return Response{Status: StatusExists, Version: cur.Version}
	case OpTreeV:
		ids, err := DecodeBucketList(req.Value)
		if err != nil {
			return Response{Status: StatusError, Value: []byte(err.Error())}
		}
		d := kv.eng.Digest()
		if len(ids) == 0 {
			ids = []uint32{1} // bare query: just the root
		}
		nodes := make([]TreeNode, 0, len(ids))
		for _, id := range ids {
			h, ok := d.Node(int(id))
			if !ok {
				return Response{Status: StatusError, Value: []byte(fmt.Sprintf("tree node %d out of range", id))}
			}
			nodes = append(nodes, TreeNode{Node: id, Hash: h})
		}
		return Response{Status: StatusOK, Value: EncodeTree(d.Buckets(), nodes)}
	case OpRangeV:
		want, listed, err := w.wantBuckets(req.Value, kv.eng.Buckets())
		if err != nil {
			return Response{Status: StatusError, Value: []byte(err.Error())}
		}
		return kv.rangeV(w, want, listed)
	case OpStats:
		// The process-global registry, not a per-handler one: a node's
		// wire, coordinator, membership, and storage metrics all answer
		// through whichever handler serves the op.
		return Response{Status: StatusOK, Value: obs.Default().Snapshot().Encode()}
	case OpTraces:
		mode, id, err := DecodeTraceQuery(req.Value)
		if err != nil {
			return Response{Status: StatusError, Value: []byte(err.Error())}
		}
		rec := kv.tracer()
		var spans []trace.Span
		switch mode {
		case TraceQueryAll:
			spans = rec.Spans()
		case TraceQueryID:
			spans = rec.TraceSpans(id)
		case TraceQuerySlow:
			spans = rec.SlowSpans()
		default:
			return Response{Status: StatusError, Value: []byte(fmt.Sprintf("unknown trace query mode %d", mode))}
		}
		return Response{Status: StatusOK, Value: trace.EncodeSpans(spans)}
	default:
		return Response{Status: StatusError, Value: []byte(fmt.Sprintf("unknown op %d", req.Op))}
	}
}

// wantBuckets marks the buckets an OpRangeV request lists (its Value,
// an EncodeBucketList body) in the worker's set of one flag per bucket,
// cleared, and returns it with how many distinct buckets it marks.
func (w *worker) wantBuckets(list []byte, buckets int) (want []bool, listed int, err error) {
	n, err := bucketListLen(list)
	if err != nil {
		return nil, 0, err
	}
	if cap(w.want) < buckets {
		w.want = make([]bool, buckets)
	}
	want = w.want[:buckets]
	clear(want)
	for i := 0; i < n; i++ {
		b := bucketListAt(list, i)
		if int(b) >= buckets {
			return nil, 0, fmt.Errorf("bucket %d out of range", b)
		}
		if !want[b] {
			want[b] = true
			listed++
		}
	}
	return want, listed, nil
}

// scratchFor returns the worker's scratch, emptied, with room for n
// bytes. A scratch too small is regrown from the transport's buffers
// when n fits them: the worker keeps the new one as its scratch and the
// old one goes back. Otherwise it is a fresh allocation, the reply's
// own.
func (w *worker) scratchFor(n int) []byte {
	if cap(w.scratch) >= n {
		return w.scratch[:0]
	}
	if n > muxBufSize {
		return make([]byte, 0, n)
	}
	putBuf(w.scratch)
	w.scratch = getBuf(n)[:0]
	return w.scratch
}

// rangeV serves OpRangeV: the marked buckets' entries are encoded into
// the response body as the engine's scan meets them, in the layout
// DecodeRangeV reads, so a listing costs its own bytes and no per-key
// intermediate. The body is sized once, when the first entry shows how
// wide one is, for the listed share of the engine's entries — keys
// hash uniformly over buckets — plus a sixteenth, and lives in the
// worker's scratch (scratchFor): a listing whose reply fits muxBufSize
// allocates nothing on a worker that has served one as long. A listing
// that outgrows its estimate is regrown by append.
func (kv *KVHandler) rangeV(w *worker, want []bool, listed int) Response {
	live, tombstones := kv.eng.Counts()
	expect := (live + tombstones) * listed / len(want)
	body := append(w.scratch[:0], 0, 0, 0, 0) // the count, patched in last
	var tooLong error
	n := 0
	kv.eng.RangeBuckets(want, func(k string, e store.Entry) bool {
		if len(k) > 0xFFFF {
			tooLong = fmt.Errorf("csnet: key length %d exceeds 65535", len(k))
			return false
		}
		if n == 0 {
			body = append(w.scratchFor(4+(expect+expect/16+1)*(rangeVEntryMin+len(k))), 0, 0, 0, 0)
		}
		body = appendRangeVEntry(body, KeyDigest{
			Key: k, Version: e.Version, Digest: store.ValueDigest(e.Value), Tombstone: e.Tombstone,
		})
		n++
		return true
	})
	if tooLong != nil {
		return Response{Status: StatusError, Value: []byte(tooLong.Error())}
	}
	binary.BigEndian.PutUint32(body, uint32(n))
	return Response{Status: StatusOK, Value: body}
}

// checkVersion is the wire trust boundary for client-supplied
// versions: anything claiming to be stamped more than
// store.MaxVersionAhead in the future is rejected before it can
// poison the engine's clock (Observe would push Next toward overflow)
// or plant a tombstone no GC horizon ever reaps.
func checkVersion(v uint64) (Response, bool) {
	if v > store.VersionCeiling(time.Now()) {
		return Response{Status: StatusError, Value: []byte("version too far in the future")}, false
	}
	return Response{}, true
}

// getV serves OpGetV with one engine lookup, the raw entry: a live
// value answers StatusOK, and a resident tombstone answers a miss that
// still carries its version, which the reader needs to order the
// delete against other replicas' copies and to repair peers with it.
// The value is a copy, made into the serving worker's scratch under the
// shard lock; a value that outgrows the scratch — or a throwaway
// worker's, which has none — costs one allocated copy.
func (kv *KVHandler) getV(w *worker, req Request) Response {
	eng := kv.tracer().StartSpan(req.Trace, trace.KindEngine, "get")
	if eng.Live() {
		eng.S.Bucket = int32(store.BucketOf(req.Key, kv.eng.Buckets()))
	}
	resp := Response{Status: StatusNotFound}
	if _, e, ok := kv.eng.AppendLoad(w.scratch[:0], req.Key); ok && !e.Tombstone {
		resp = Response{Status: StatusOK, Value: e.Value, Version: e.Version}
	} else if ok {
		resp.Version, resp.Flags = e.Version, FlagTombstone
	}
	eng.Finish()
	return resp
}

// merge applies a replicated entry last-writer-wins: StatusOK when it
// won, StatusExists when the resident entry was newer and kept — both
// are success for a replicator, and both responses carry the winning
// version. A traced request gets an engine span with the key's Merkle
// bucket — computed only when tracing, so the untraced path pays
// nothing.
func (kv *KVHandler) merge(e store.Entry, key string, tr trace.Context) Response {
	eng := kv.tracer().StartSpan(tr, trace.KindEngine, "merge")
	if eng.Live() {
		eng.S.Bucket = int32(store.BucketOf(key, kv.eng.Buckets()))
	}
	winner, applied := kv.eng.Merge(key, e)
	eng.Finish()
	resp := Response{Status: StatusOK, Version: winner}
	if !applied {
		resp.Status = StatusExists
	}
	if e.Tombstone {
		resp.Flags |= FlagTombstone
	}
	return resp
}

// Len reports the number of live stored keys.
func (kv *KVHandler) Len() int { return kv.eng.Len() }
