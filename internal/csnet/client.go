package csnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pdcedu/internal/obs"
	"pdcedu/internal/store"
	"pdcedu/internal/trace"
)

// ErrBusy is the typed, retryable error a StatusBusy reply maps to:
// the server shed the request under admission control before executing
// it, so it had no effect and is safe to retry after backoff. Every
// client helper wraps it with the operation's context; test for it
// with IsBusy (or errors.Is), never by string.
var ErrBusy = errors.New("csnet: server busy")

// IsBusy reports whether err — however deeply wrapped — stems from an
// admission-control shed (StatusBusy). It is the predicate callers use
// to tell "shed, back off and retry" apart from genuine failure.
func IsBusy(err error) bool { return errors.Is(err, ErrBusy) }

// respErr converts a non-success response into an error. A StatusBusy
// reply maps to the typed ErrBusy (wrapped with what, so the operation
// still reads out of the message); anything else reports the server's
// message verbatim.
func respErr(what string, resp Response) error {
	if resp.Status == StatusBusy {
		return fmt.Errorf("csnet: %s: %w", what, ErrBusy)
	}
	return fmt.Errorf("csnet: %s: %s", what, resp.Value)
}

// Client is a framed-protocol TCP client over a single pipelined,
// multiplexed connection. It is safe for concurrent use: N callers
// share the connection with N requests in flight, instead of
// serializing lock-step round trips. A key's entry rides Batch; a
// node-wide query (TreeV, RangeV, Stats, Traces, gossip) rides Call.
type Client struct {
	m *muxConn
	// readReply is the longest read reply, as encoded, a Batch has
	// decoded from this server: what a Batch expects each read it sends
	// to draw.
	readReply atomic.Int64
}

// Dial connects to a Server at addr. timeout bounds the dial and each
// subsequent request (default 5s).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("csnet: dial %s: %w", addr, err)
	}
	m, err := newMuxConn(conn, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{m: m}, nil
}

// SendFrame enqueues one raw frame without waiting for its response;
// the returned Pending resolves when the matching response frame
// arrives. This is the pipelining primitive: fire many, then wait. body
// stays the caller's — the transport only reads it, until the Pending
// resolves — and the Pending is single-use (see Pending).
func (c *Client) SendFrame(body []byte) *Pending {
	p := new(Pending)
	c.m.enqueue(p, body, nil)
	return p
}

// broken reports whether the underlying connection has been poisoned
// by a transport failure; a broken client fails every call fast, and a
// Peer replaces it.
func (c *Client) broken() bool { return c.m.broken() }

// ErrPeerClosed is what Peer.Client returns once the Peer is closed.
var ErrPeerClosed = errors.New("csnet: peer closed")

// Peer is the one connection a process keeps to one server, shared by
// every caller: pipelining makes one muxed connection carry any number
// of concurrent requests. It dials on first use and again once a
// transport failure has poisoned the connection, and never hands out a
// broken client. One dial is in flight at a time, outside the lock:
// callers that arrive meanwhile wait for it and share its outcome, so a
// cold Peer under a burst of callers opens one connection, not one a
// caller; a dial that finishes after Close is closed.
type Peer struct {
	addr    string
	timeout time.Duration
	dial    func(addr string, timeout time.Duration) (*Client, error) // Dial; a test stalls it here

	mu      sync.Mutex
	cl      *Client
	pending *peerDial // the dial in flight, nil when none is
	closed  bool
}

// peerDial is one dial's outcome for the callers waiting on it: err is
// set before done is closed.
type peerDial struct {
	done chan struct{}
	err  error
}

// NewPeer returns the Peer for the server at addr; timeout is Dial's.
// Nothing is dialed until the first Client call.
func NewPeer(addr string, timeout time.Duration) *Peer {
	return &Peer{addr: addr, timeout: timeout, dial: Dial}
}

// Addr returns the server's address.
func (p *Peer) Addr() string { return p.addr }

// Client returns the peer's live client, dialing when there is none, or
// waiting for the dial already in flight. A broken client is closed and
// dropped first — replacing one, unlike the first dial, is a redial and
// is counted.
func (p *Peer) Client() (*Client, error) {
	p.mu.Lock()
	if p.cl != nil && p.cl.broken() {
		csnetM.peerRedials.Inc()
		p.cl.Close()
		p.cl = nil
	}
	switch {
	case p.closed:
		p.mu.Unlock()
		return nil, ErrPeerClosed
	case p.cl != nil:
		cl := p.cl
		p.mu.Unlock()
		return cl, nil
	case p.pending != nil:
		d := p.pending
		p.mu.Unlock()
		<-d.done
		if d.err != nil {
			return nil, d.err
		}
		return p.Client()
	}
	d := &peerDial{done: make(chan struct{})}
	p.pending = d
	p.mu.Unlock()
	cl, err := p.dial(p.addr, p.timeout)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pending = nil
	switch {
	case err != nil:
		d.err = err
	case p.closed:
		cl.Close()
		d.err = ErrPeerClosed
	default:
		p.cl = cl
	}
	close(d.done)
	if d.err != nil {
		return nil, d.err
	}
	return cl, nil
}

// Close closes the connection, failing its in-flight calls, and every
// later Client call.
func (p *Peer) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	if p.cl != nil {
		p.cl.Close()
		p.cl = nil
	}
}

// Call is an in-flight key-value protocol request issued by Send: one
// allocation holding its own completion state. It is single-use — the
// first Response, ResponseTimeout or ResponseV returns the outcome,
// any later one ErrCallConsumed — and is never recycled.
type Call struct {
	p Pending
}

// Response waits for and decodes the response to this call.
func (call *Call) Response() (Response, error) {
	body, err := call.p.Wait()
	if err != nil {
		return Response{}, err
	}
	return DecodeResponse(body)
}

// ResponseTimeout is Response with a per-call deadline (see
// Pending.WaitTimeout).
func (call *Call) ResponseTimeout(d time.Duration) (Response, error) {
	body, err := call.p.WaitTimeout(d)
	if err != nil {
		return Response{}, err
	}
	return DecodeResponse(body)
}

// ResponseV waits for and decodes the versioned response to this call;
// use it exactly for calls whose request op is Versioned.
func (call *Call) ResponseV() (Response, error) {
	body, err := call.p.Wait()
	if err != nil {
		return Response{}, err
	}
	return DecodeResponseV(body)
}

// Send enqueues a key-value protocol request without waiting: the
// pipelined counterpart of Do. The request is encoded here into a
// transport-owned buffer, so req.Value is the caller's again as soon as
// Send returns. An encoding failure resolves the returned call, like
// any other failure to send. The call is single-use (see Call).
func (c *Client) Send(req Request) *Call {
	call := new(Call)
	buf, err := AppendRequest(getBuf(requestSize(req))[:0], req)
	if err != nil {
		putBuf(buf)
		call.p.done.Add(1)
		call.p.resolve(nil, err)
		return call
	}
	c.m.enqueue(&call.p, buf, buf)
	return call
}

// Do sends a request and waits for its response.
func (c *Client) Do(req Request) (Response, error) {
	return c.Send(req).Response()
}

// GetV fetches a key with its version. On ok the entry is live; on
// !ok with a nil error the entry may still carry the version (and
// Tombstone flag) of a resident tombstone, so callers
// can order the miss against other replicas.
func (c *Client) GetV(key string) (e store.Entry, ok bool, err error) {
	resp, err := c.Send(Request{Op: OpGetV, Key: key}).ResponseV()
	if err != nil {
		return store.Entry{}, false, err
	}
	e = store.Entry{Value: resp.Value, Version: resp.Version, Tombstone: resp.Flags&FlagTombstone != 0}
	switch resp.Status {
	case StatusOK:
		return e, true, nil
	case StatusNotFound:
		return e, false, nil
	default:
		return store.Entry{}, false, respErr(fmt.Sprintf("getv %q", key), resp)
	}
}

// SetV stores a key at the given version via last-writer-wins merge
// (version 0 lets the server stamp one). applied reports whether this
// write won; either way winner is the version now resident.
func (c *Client) SetV(key string, value []byte, version uint64) (winner uint64, applied bool, err error) {
	resp, err := c.Send(Request{Op: OpSetV, Key: key, Value: value, Version: version}).ResponseV()
	if err != nil {
		return 0, false, err
	}
	switch resp.Status {
	case StatusOK:
		return resp.Version, true, nil
	case StatusExists:
		return resp.Version, false, nil
	default:
		return 0, false, respErr(fmt.Sprintf("setv %q", key), resp)
	}
}

// MergeRequest builds the OpMerge request that carries a full
// replicated entry (value or tombstone) under trace context tr.
func MergeRequest(key string, e store.Entry, tr trace.Context) Request {
	req := Request{Op: OpMerge, Key: key, Value: e.Value, Version: e.Version, Trace: tr}
	if e.Tombstone {
		req.Flags |= FlagTombstone
		req.Value = nil
	}
	return req
}

// TreeV queries the server's Merkle digest for the given tree node
// indexes (nil or empty = just the root), returning the tree's leaf
// count and the requested hashes. Callers descend: compare the root,
// then ask for the children of every mismatching node, down to the
// divergent leaf buckets.
func (c *Client) TreeV(nodes []uint32) (buckets int, hashes []TreeNode, err error) {
	resp, err := c.Send(Request{Op: OpTreeV, Value: EncodeBucketList(nodes)}).ResponseV()
	if err != nil {
		return 0, nil, err
	}
	if resp.Status != StatusOK {
		return 0, nil, fmt.Errorf("csnet: treev: %s", resp.Value)
	}
	return DecodeTree(resp.Value)
}

// Stats fetches the server's live metrics snapshot — every counter,
// gauge, and latency histogram its process-global registry holds.
// Snapshots from many nodes Merge into cluster totals (see
// dist.Cluster.ClusterStats).
func (c *Client) Stats() (obs.Snapshot, error) {
	resp, err := c.Do(Request{Op: OpStats})
	if err != nil {
		return obs.Snapshot{}, err
	}
	if resp.Status != StatusOK {
		return obs.Snapshot{}, fmt.Errorf("csnet: stats: %s", resp.Value)
	}
	return obs.DecodeSnapshot(resp.Value)
}

// Traces fetches spans from the server's trace recorder: mode is one
// of the TraceQuery constants, id the trace ID for TraceQueryID (0
// otherwise). Spans from many nodes assemble into cross-node trees
// via trace.Assemble.
func (c *Client) Traces(mode byte, id uint64) ([]trace.Span, error) {
	resp, err := c.Do(Request{Op: OpTraces, Value: EncodeTraceQuery(mode, id)})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, fmt.Errorf("csnet: traces: %s", resp.Value)
	}
	return trace.DecodeSpans(resp.Value)
}

// Ping checks server liveness.
func (c *Client) Ping() error {
	resp, err := c.Do(Request{Op: OpPing})
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("csnet: ping failed: %s", resp.Status)
	}
	return nil
}

// Close releases the connection, failing any in-flight requests, and
// returns once the connection's reader and writer goroutines are done:
// all that is left of them is their return.
func (c *Client) Close() error {
	return c.m.close()
}
