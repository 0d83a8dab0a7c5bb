package csnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// ErrClientClosed is delivered to every in-flight request when the
// client (or its connection) is torn down.
var ErrClientClosed = errors.New("csnet: client closed")

// FrameBudget is the largest frame, request or reply, whose buffer the
// transport recycles (see freeBufs): a sender that keeps its frames and
// the replies they draw within it allocates nothing per frame on either
// end once the free lists are warm.
const FrameBudget = 64 << 10

// muxBufSize sizes the per-connection read and write buffers — large
// enough that a burst of pipelined frames coalesces into one syscall —
// and is the frame budget.
const muxBufSize = FrameBudget

// muxSendQueue bounds how many requests may wait for the writer
// goroutine; enqueueing past it applies backpressure to callers.
const muxSendQueue = 256

// muxIdleWindow is how long the reader blocks between wake-ups when no
// request is in flight (an idle pooled connection has no deadline to
// enforce, it just re-arms). Kept short: it also bounds how long a
// request that raced the reader's deadline re-arm can go unnoticed.
const muxIdleWindow = time.Second

// Buffer ownership — the one rule of this transport. A buffer whose
// whole life the transport controls is drawn from getBuf at the size it
// will be filled to, so it comes from its size class of the free list
// (freeBufs) and never regrows into the other, and released with putBuf
// by the one place that last reads it:
//
//   - the request frame Send encodes or a Batch builds (never
//     SendFrame's body: that is the caller's and is only read), drawn at
//     the request's size (requestSize; a Batch of two or more entries
//     moves to a whole muxBufSize frame) and released by the frame writer
//     once its bytes are copied into the connection's write buffer;
//   - the request body a server reads off a connection, which rides its
//     response frame so a reply that aliases it is written first;
//   - the dst a server hands ServeFrame to append the response to — or,
//     when the reply outgrew dst, the array append (or roomFor, from
//     getBuf) moved it to: a reply in neither dst's array nor the
//     body's is released by the writer in dst's place, and dst by the
//     worker at once (worker.serve), so a reply of up to muxBufSize is
//     recycled wherever it was built;
//   - a server worker's scratch (worker.scratch, which a served
//     Request reaches through its worker), drawn when the worker starts
//     and released when it exits. The KVHandler appends a reply's value
//     to it — a GETV's, a copy made under the shard lock by
//     Sharded.AppendLoad, or an OpRangeV listing's whole body — and the
//     reply is encoded into dst before the worker serves its next frame
//     or the next entry of a batch, so one scratch per worker is never
//     read after it is reused. A reply that needs a larger one
//     (worker.scratchFor) draws it from getBuf, up to muxBufSize; the
//     worker keeps it from then on and the old one is released, as
//     nothing reads it any more. A throwaway worker — a frame served
//     outside a server — has none, and whatever it draws is garbage
//     with it;
//   - a Batch frame's reply body, released by the Batch together with
//     the frame's Pending (getPending/putPending) once the frame's last
//     entry has been decoded. The parts of a reply a caller can keep —
//     a read's value, an error's text — are copied out, so no Response
//     a Batch returns aliases the body.
//
// Everything else a caller can hold is a plain allocation made for it
// and never reused: the *Call of Send, the *Pending of SendFrame, and
// their reply bodies (a node-wide query's reply is what its decoder
// aliases: a RangeV listing's keys, say; the server built that listing
// in its transport buffers, which is why a coordinator asks for
// listings that fit muxBufSize). A buffer or Pending that
// misses its release — a dying connection's backlog, an abandoned
// Batch — is ordinary garbage, so no path has to release to stay
// correct; none may release early.
//
// Decoders do not copy out of the bytes they decode (aliasString):
//
//   - a served Request's Key and Value alias the request body, so they
//     are valid until Handler.Serve returns, and a handler that keeps
//     either past that clones it (strings.Clone, bytes.Clone). The
//     engine copies what it stores, so a served read copies its key
//     nowhere and a write once, into the engine's record;
//   - a decoded listing's keys (DecodeRangeV) alias the reply body,
//     which is the caller's and lives as long as any of them does.
//
// freeBufs is the free list, in two size classes of one capacity each,
// so that neither starves the other and any buffer of a class fits any
// draw of it: small holds buffers of exactly bufMinCap — the
// single-key frames and replies, 1024 slots for a pipelined burst's
// buffers on both ends of a few connections — and large buffers of
// exactly muxBufSize — batch frames, listings and their replies, 64
// slots, at most 4 MiB pinned. getBuf allocates every draw at its
// class's capacity, so a popped buffer is never too small and never
// dropped for a larger one. A small frame never takes a large buffer
// and a large frame never pops a small one. Nothing above muxBufSize is
// kept, so one large frame (an OpStats snapshot, a listing a
// coordinator asked for whole) cannot pin memory; such a reply is
// counted in csnet.server.reply_oversize as it is dropped. Nothing of
// another capacity is kept either — a reply body read for a caller that
// gave up, a handler's reply built outside dst, one append regrew.
var freeBufs = struct{ small, large chan []byte }{
	small: make(chan []byte, 1024),
	large: make(chan []byte, 64),
}

// freePendings is the Batch frames' Pendings, under freeBufs' rules:
// bounded — 1024 slots, one per frame in flight, hold the bursts of a
// few hundred concurrent rf=3 writes — and poisoned in tests (see
// putPending).
var freePendings = make(chan *Pending, 1024)

// bufMinCap is the capacity a fresh buffer starts with: a response
// that fits never regrows its dst.
const bufMinCap = 1 << 10

// aliasString returns a string sharing b's bytes instead of copying
// them: the package's one unsafe conversion, safe exactly as long as
// the rule above holds b still.
func aliasString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// within reports whether s starts inside b's array — s is b, b grown in
// place, or a piece of b — by comparing addresses only.
func within(s, b []byte) bool {
	if cap(s) == 0 || cap(b) == 0 {
		return false
	}
	at := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return at >= lo && at < lo+uintptr(cap(b))
}

// TestPoisonRelease makes putBuf overwrite every released buffer with
// 0xDB, so an alias that outlives its owner fails the test that reads
// it, and makes a released Pending refuse a second release or a late
// resolve with a panic. Tests only (the convention of internal/poll's
// TestHook variables): set it in TestMain, before any connection
// exists.
var TestPoisonRelease bool

// getBuf returns a transport-owned buffer of length n: from the free
// list of n's size class, or allocated at the class's capacity. A draw
// past muxBufSize has no class and gets exactly n.
func getBuf(n int) []byte {
	free, size := freeBufs.small, bufMinCap
	switch {
	case n > muxBufSize:
		return make([]byte, n)
	case n > bufMinCap:
		free, size = freeBufs.large, muxBufSize
	}
	select {
	case b := <-free:
		return b[:n]
	default:
		return make([]byte, n, size)
	}
}

// putBuf releases a buffer obtained from getBuf (nil is a no-op) to
// the free list of its capacity's class; a buffer of any other
// capacity is dropped.
func putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	if TestPoisonRelease {
		b = b[:cap(b)]
		b[0] = 0xDB
		for n := 1; n < len(b); n *= 2 {
			copy(b[n:], b[:n]) // doubling: one bulk write per step, cheap under -race
		}
	}
	var free chan []byte
	switch cap(b) {
	case bufMinCap:
		free = freeBufs.small
	case muxBufSize:
		free = freeBufs.large
	default:
		return
	}
	select {
	case free <- b[:0]:
	default:
	}
}

// getPending returns an open Pending that a Batch owns: its reply body
// comes from getBuf, and the Batch hands both back with putPending.
func getPending() *Pending {
	select {
	case p := <-freePendings:
		p.state.Store(pendingOpen)
		return p
	default:
		return &Pending{owned: true}
	}
}

// putPending releases a Pending from getPending once its reply has been
// taken. Safe because a Batch only ever Waits — no timer can resolve it
// late — and the mux deletes a seq from pending before it resolves
// it, so once Wait returns nothing else holds p.
func putPending(p *Pending) {
	if TestPoisonRelease && !p.state.CompareAndSwap(pendingTaken, pendingReleased) {
		panic("csnet: Pending released twice, or before its reply was taken")
	}
	p.body, p.err = nil, nil
	select {
	case freePendings <- p:
	default:
	}
}

// ErrCallConsumed is what a second Wait or Response on the same call
// returns: a call is single-use, and its reply was handed out once.
var ErrCallConsumed = errors.New("csnet: call already consumed")

// Pending is an in-flight pipelined request on a multiplexed
// connection, resolved exactly once by whichever comes first: the
// matching response frame, the error that poisoned the connection, or
// a WaitTimeout expiring. It is single-use: one Wait or WaitTimeout
// returns the outcome, any later one ErrCallConsumed. The Pending
// SendFrame returns is never recycled, so a stale one cannot receive
// another caller's reply; only a Batch recycles its own (getPending).
type Pending struct {
	done  sync.WaitGroup // released by the first resolver
	state atomic.Uint32  // pendingOpen → pendingResolved → pendingTaken (→ pendingReleased)
	owned bool           // a Batch's: its reply body is a getBuf buffer
	body  []byte
	err   error
}

const (
	pendingOpen uint32 = iota
	pendingResolved
	pendingTaken
	pendingReleased // back on freePendings; only under TestPoisonRelease
)

// resolve completes p unless something already has; the loser's result
// is dropped.
func (p *Pending) resolve(body []byte, err error) bool {
	if !p.state.CompareAndSwap(pendingOpen, pendingResolved) {
		if TestPoisonRelease && p.state.Load() == pendingReleased {
			panic("csnet: Pending resolved after its release")
		}
		return false
	}
	p.body, p.err = body, err
	p.done.Done()
	return true
}

// Wait returns the raw response frame for this request.
func (p *Pending) Wait() ([]byte, error) {
	p.done.Wait()
	if !p.state.CompareAndSwap(pendingResolved, pendingTaken) {
		return nil, ErrCallConsumed
	}
	return p.body, p.err
}

// ErrWaitTimeout reports that a per-call WaitTimeout elapsed before the
// response arrived; the connection itself stays usable (its own timeout
// still governs the abandoned request).
var ErrWaitTimeout = errors.New("csnet: wait timeout")

// WaitTimeout is Wait with a per-call deadline shorter than the
// connection timeout: probe traffic (internal/member) gives up on a
// slow peer after its probe window without poisoning the shared
// connection. The expiry is one more resolver, so it races a late
// reply cleanly: whichever loses is dropped, and a timeout is counted
// only when it won.
func (p *Pending) WaitTimeout(d time.Duration) ([]byte, error) {
	t := time.AfterFunc(d, func() { p.resolve(nil, ErrWaitTimeout) })
	defer t.Stop()
	body, err := p.Wait()
	if err == ErrWaitTimeout {
		csnetM.muxTimeouts.Inc()
	}
	return body, err
}

// muxEntry tracks one registered request until its response arrives.
type muxEntry struct {
	p        *Pending
	deadline time.Time
}

// muxFrame is one sequence-tagged frame queued for a connection's
// writer goroutine (client requests and server responses alike). The
// server's read loop stamps at so a handler can report how long the
// frame queued before it ran; the client writer leaves it zero. free
// lists the transport-owned buffers that die with the frame (see the
// ownership rule above).
type muxFrame struct {
	seq  uint64
	body []byte
	at   time.Time
	free [2][]byte
}

// release returns the frame's transport-owned buffers.
func (f *muxFrame) release() {
	putBuf(f.free[0])
	putBuf(f.free[1])
}

// muxConn is a pipelined, multiplexed framed connection: N concurrent
// callers share one TCP connection with N requests in flight. One
// writer goroutine drains the send queue, coalescing header+body and
// batching queued frames into a single buffered write; one reader
// goroutine resolves each response's Pending by sequence number. Any
// transport failure poisons the connection and fails every pending and
// future request.
type muxConn struct {
	conn    net.Conn
	timeout time.Duration
	sendq   chan muxFrame
	dead    chan struct{}  // closed by fail(); unblocks writer and enqueuers
	loops   sync.WaitGroup // the writer and reader goroutines

	mu      sync.Mutex
	pending map[uint64]muxEntry
	nextSeq uint64
	err     error // first transport error; non-nil means poisoned
}

// newMuxConn performs the magic handshake on conn and starts the
// writer and reader goroutines.
func newMuxConn(conn net.Conn, timeout time.Duration) (*muxConn, error) {
	_ = conn.SetWriteDeadline(time.Now().Add(timeout))
	if _, err := conn.Write(muxMagic[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("csnet: mux handshake: %w", err)
	}
	m := &muxConn{
		conn:    conn,
		timeout: timeout,
		sendq:   make(chan muxFrame, muxSendQueue),
		dead:    make(chan struct{}),
		pending: map[uint64]muxEntry{},
	}
	m.loops.Add(2)
	go m.writeLoop()
	go m.readLoop()
	return m, nil
}

// enqueue registers p as a request and hands the frame to the writer;
// free is the transport buffer body lives in (nil when body is the
// caller's), released once written. p always resolves: with the
// response, or with the error that poisoned the connection.
func (m *muxConn) enqueue(p *Pending, body, free []byte) {
	p.done.Add(1)
	if len(body) > MaxFrameSize {
		p.resolve(nil, ErrFrameTooLarge)
		return
	}
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		p.resolve(nil, err)
		return
	}
	seq := m.nextSeq
	m.nextSeq++
	wasIdle := len(m.pending) == 0
	m.pending[seq] = muxEntry{p: p, deadline: time.Now().Add(m.timeout)}
	depth := len(m.pending)
	m.mu.Unlock()
	csnetM.muxPendingHW.SetMax(int64(depth))
	if wasIdle {
		// The reader may be blocked in its long idle window; re-arming
		// the read deadline interrupts that read so this request's
		// timeout is actually enforced.
		_ = m.conn.SetReadDeadline(time.Now().Add(m.timeout))
	}
	select {
	case m.sendq <- muxFrame{seq: seq, body: body, free: [2][]byte{free}}:
	case <-m.dead:
		// fail() already resolved p through the pending map.
	}
}

// expired reports whether any in-flight request has outlived its
// deadline — the distinction between a stale read-deadline wake-up and
// a genuinely stuck request.
func (m *muxConn) expired() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	for _, e := range m.pending {
		if !now.Before(e.deadline) {
			return true
		}
	}
	return false
}

// nearestDeadline returns the earliest in-flight request deadline; ok
// is false when nothing is pending.
func (m *muxConn) nearestDeadline() (time.Time, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var min time.Time
	for _, e := range m.pending {
		if min.IsZero() || e.deadline.Before(min) {
			min = e.deadline
		}
	}
	return min, !min.IsZero()
}

// fail poisons the connection: the first error wins, every pending
// request is resolved with it, and future enqueues fail fast.
func (m *muxConn) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
		if !errors.Is(err, ErrClientClosed) {
			// A deliberate close is lifecycle, not damage; everything
			// else is a poisoned connection the pool will have to redial.
			csnetM.muxPoisoned.Inc()
		}
		close(m.dead)
		for seq, e := range m.pending {
			delete(m.pending, seq)
			e.p.resolve(nil, err)
		}
	}
	m.mu.Unlock()
	m.conn.Close()
}

// broken reports whether the connection has been poisoned.
func (m *muxConn) broken() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err != nil
}

// close tears the connection down, failing all in-flight requests, and
// returns once the writer and reader goroutines are done.
func (m *muxConn) close() error {
	m.fail(ErrClientClosed)
	m.loops.Wait()
	return nil
}

// runFrameWriter is the coalescing writer shared by the client mux and
// the server's muxed connections: it blocks for one frame from q, then
// greedily drains everything already queued into the buffered writer,
// yields once so concurrent producers can enqueue (a channel send parks
// the sender and often schedules this writer immediately, so without
// the yield a burst degrades to one flush syscall per frame), drains
// again, and flushes — a burst of N frames costs one syscall, not N.
//
// It exits when q closes (flushing what was written), when stop closes,
// or on the first write error, which is reported through fail; after a
// failure remaining frames are discarded until q closes or stop fires,
// so producers never block on a dead writer. A nil stop channel blocks
// forever (server connections terminate by closing q instead). timeout,
// when positive, arms a write deadline per batch.
func runFrameWriter(conn net.Conn, q <-chan muxFrame, stop <-chan struct{}, timeout time.Duration, fail func(error)) {
	bw := bufio.NewWriterSize(conn, muxBufSize)
	hdr := make([]byte, muxHeaderSize)
	frames := 0 // written since the last flush
	writeOne := func(f muxFrame) error {
		if len(f.body) > MaxFrameSize {
			return ErrFrameTooLarge
		}
		frames++
		putMuxHeader(hdr, f.seq, len(f.body))
		if _, err := bw.Write(hdr); err != nil {
			return err
		}
		_, err := bw.Write(f.body)
		f.release() // copied (or failed): nothing reads the buffers again
		return err
	}
	drain := func() (err error, open bool) {
		for {
			select {
			case f, ok := <-q:
				if !ok {
					return nil, false
				}
				if err := writeOne(f); err != nil {
					return err, true
				}
			default:
				return nil, true
			}
		}
	}
	for {
		var f muxFrame
		var open bool
		select {
		case f, open = <-q:
			if !open {
				_ = bw.Flush()
				return
			}
		case <-stop:
			return
		}
		if timeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(timeout))
		}
		err := writeOne(f)
		if err == nil {
			err, open = drain()
		}
		if err == nil && open {
			runtime.Gosched() // batching yield; see doc comment
			err, open = drain()
		}
		if err == nil {
			// Booked before the write, so it is in the histogram by the
			// time the peer reads the frames.
			csnetM.framesPerFlush.Observe(int64(frames))
			frames = 0
			err = bw.Flush()
		}
		if err != nil {
			fail(fmt.Errorf("csnet: mux write: %w", err))
			for { // discard the backlog so producers never block
				select {
				case _, ok := <-q:
					if !ok {
						return
					}
				case <-stop:
					return
				}
			}
		}
		if !open {
			return
		}
	}
}

// writeLoop feeds the shared coalescing writer from the send queue.
func (m *muxConn) writeLoop() {
	defer m.loops.Done()
	runFrameWriter(m.conn, m.sendq, m.dead, m.timeout, m.fail)
}

// readRetry fills buf from br, tolerating read-deadline expiries as
// long as no in-flight request has actually exceeded its deadline (the
// deadline doubles as a periodic liveness check on idle connections).
// Before each read that will hit the wire, the deadline is armed to the
// earliest pending request's own deadline — absolute, not
// block-time-relative — so a single stuck request times out even while
// other responses keep the connection busy, and timeouts never
// overshoot by a full window.
func (m *muxConn) readRetry(br *bufio.Reader, buf []byte) error {
	n := 0
	for n < len(buf) {
		if br.Buffered() == 0 {
			// About to hit the wire: arm the deadline (cheap relative
			// to the blocking read that follows).
			if dl, ok := m.nearestDeadline(); ok {
				_ = m.conn.SetReadDeadline(dl)
			} else {
				_ = m.conn.SetReadDeadline(time.Now().Add(muxIdleWindow))
			}
		}
		k, err := br.Read(buf[n:])
		n += k
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && !m.expired() {
				continue
			}
			return err
		}
	}
	return nil
}

// readLoop dispatches response frames to their waiting callers.
func (m *muxConn) readLoop() {
	defer m.loops.Done()
	br := bufio.NewReaderSize(m.conn, muxBufSize)
	hdr := make([]byte, muxHeaderSize)
	for {
		if err := m.readRetry(br, hdr); err != nil {
			m.fail(fmt.Errorf("csnet: mux read: %w", err))
			return
		}
		seq, n := parseMuxHeader(hdr)
		if n > MaxFrameSize {
			m.fail(ErrFrameTooLarge)
			return
		}
		// Look the seq up before reading the body: a response nobody
		// asked for means the stream is corrupt, so fail now rather than
		// wait on a body that may never come, and never risk delivering
		// one caller's bytes to another. The entry stays in pending while
		// its body is read, so its deadline still governs the read and a
		// failed read resolves it through fail.
		m.mu.Lock()
		e, ok := m.pending[seq]
		m.mu.Unlock()
		if !ok {
			m.fail(fmt.Errorf("csnet: mux response for unknown seq %d", seq))
			return
		}
		var body []byte
		if e.p.owned {
			body = getBuf(int(n))
		} else {
			body = make([]byte, n)
		}
		// A body nobody is handed goes back to the free list, whichever
		// way it was allocated.
		if err := m.readRetry(br, body); err != nil {
			putBuf(body)
			m.fail(fmt.Errorf("csnet: mux read body: %w", err))
			return
		}
		m.mu.Lock()
		_, ok = m.pending[seq] // gone: fail resolved it while the body was read
		delete(m.pending, seq)
		m.mu.Unlock()
		if !ok || !e.p.resolve(body, nil) { // false: WaitTimeout gave up first
			putBuf(body)
		}
	}
}
