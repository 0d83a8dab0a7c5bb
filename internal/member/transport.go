package member

import (
	"fmt"
	"sync"
	"time"

	"pdcedu/internal/csnet"
)

// Transport delivers one encoded SWIM message to a peer and returns
// the peer's encoded reply. The default implementation rides csnet's
// multiplexed connections (gossip shares the data port); tests plug in
// an in-memory transport to simulate partitions deterministically.
type Transport interface {
	// Exchange performs one request/response round with peer, giving
	// up after timeout without tearing down shared connection state.
	Exchange(peer string, msg []byte, timeout time.Duration) ([]byte, error)
	// Close releases any held connections.
	Close() error
}

// csnetTransport sends SWIM messages as OpGossip requests over one
// csnet.Peer per peer: one multiplexed connection, dialed lazily and
// redialed after transport failures. Membership probes therefore
// exercise the same wire path the data plane uses: a peer that cannot
// serve gossip cannot serve reads either, which is exactly what the
// detector should measure.
type csnetTransport struct {
	connTimeout time.Duration

	mu    sync.Mutex
	peers map[string]*csnet.Peer // nil once closed
}

// newCsnetTransport builds the default transport; connTimeout bounds
// dialing and each connection-level request deadline (per-call probe
// timeouts are enforced on top via ResponseTimeout).
func newCsnetTransport(connTimeout time.Duration) *csnetTransport {
	return &csnetTransport{connTimeout: connTimeout, peers: map[string]*csnet.Peer{}}
}

// Exchange implements Transport.
func (t *csnetTransport) Exchange(peer string, msg []byte, timeout time.Duration) ([]byte, error) {
	t.mu.Lock()
	p := t.peers[peer]
	if p == nil && t.peers != nil {
		p = csnet.NewPeer(peer, t.connTimeout)
		t.peers[peer] = p
	}
	t.mu.Unlock()
	if p == nil {
		return nil, fmt.Errorf("member: transport closed")
	}
	cl, err := p.Client()
	if err != nil {
		return nil, err
	}
	resp, err := cl.Send(csnet.Request{Op: csnet.OpGossip, Value: msg}).ResponseTimeout(timeout)
	if err != nil {
		return nil, err
	}
	if resp.Status != csnet.StatusOK {
		return nil, fmt.Errorf("member: gossip to %s: status %s: %s", peer, resp.Status, resp.Value)
	}
	return resp.Value, nil
}

// Close implements Transport.
func (t *csnetTransport) Close() error {
	t.mu.Lock()
	peers := t.peers
	t.peers = nil
	t.mu.Unlock()
	for _, p := range peers {
		p.Close()
	}
	return nil
}

// Handler wraps a csnet Handler so one server port carries both the
// key-value data plane and the membership control plane: OpGossip
// frames are answered by the Memberlist, everything else is passed
// through to next. A nil next serves gossip only.
func (m *Memberlist) Handler(next csnet.Handler) csnet.Handler {
	return csnet.HandlerFunc(func(req csnet.Request) csnet.Response {
		if req.Op == csnet.OpGossip {
			reply, err := m.HandleMessage(req.Value)
			if err != nil {
				return csnet.Response{Status: csnet.StatusError, Value: []byte(err.Error())}
			}
			return csnet.Response{Status: csnet.StatusOK, Value: reply}
		}
		if next == nil {
			return csnet.Response{Status: csnet.StatusError, Value: []byte("member: gossip-only endpoint")}
		}
		return next.Serve(req)
	})
}
