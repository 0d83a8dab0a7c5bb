package member

import (
	"fmt"
	"testing"
	"time"

	"pdcedu/internal/csnet"
)

// warmTrio returns three memberlists n0, n1 and n2 that know each
// other alive and have gossiped their join transitions out of their
// queues, each served as a node serves it — the handler the node
// registers, in front of a KV handler — by a csnet.Worker, which keeps
// its scratch from one frame to the next as a server's worker does.
func warmTrio(b *testing.B) ([]*Memberlist, map[string]*csnet.Worker) {
	b.Helper()
	ids := []string{"n0", "n1", "n2"}
	lists := make([]*Memberlist, len(ids))
	workers := map[string]*csnet.Worker{}
	for i, id := range ids {
		ml, err := New(Config{ID: id, Transport: &workerTransport{workers: workers}})
		if err != nil {
			b.Fatal(err)
		}
		lists[i] = ml
		workers[id] = csnet.NewWorker(ml.Handler(csnet.NewKVHandler()))
	}
	for _, ml := range lists {
		if err := ml.Join(ids...); err != nil {
			b.Fatal(err)
		}
	}
	for _, ml := range lists {
		for n := 1; ml.bq.pending() > 0; n++ {
			ml.round(n)
		}
		if got := ml.NumAlive(); got != len(ids) {
			b.Fatalf("%s sees %d alive, want %d", ml.ID(), got, len(ids))
		}
	}
	return lists, workers
}

// workerTransport delivers each message to the peer's csnet.Worker
// inside an OpGossip frame, in process, one exchange at a time: the
// request frame and the reply are this transport's buffers, reused,
// so an exchange costs only what the two memberlists allocate.
type workerTransport struct {
	workers      map[string]*csnet.Worker
	frame, reply []byte
}

func (t *workerTransport) Exchange(peer string, msg []byte, _ time.Duration) ([]byte, error) {
	w := t.workers[peer]
	if w == nil {
		return nil, fmt.Errorf("no worker serves %s", peer)
	}
	var err error
	if t.frame, err = csnet.AppendRequest(t.frame[:0], csnet.Request{Op: csnet.OpGossip, Value: msg}); err != nil {
		return nil, err
	}
	t.reply = w.ServeFrame(t.reply[:0], t.frame)
	resp, err := csnet.DecodeResponse(t.reply)
	if err != nil {
		return nil, err
	}
	if resp.Status != csnet.StatusOK {
		return nil, fmt.Errorf("gossip to %s: %s: %s", peer, resp.Status, resp.Value)
	}
	return resp.Value, nil
}

func (t *workerTransport) Close() error { return nil }

// benchServe serves msg, sent by n1, to n0 through n0's worker b.N
// times and checks the reply's kind.
func benchServe(b *testing.B, msg message, want msgKind) {
	_, workers := warmTrio(b)
	frame, err := csnet.EncodeRequest(csnet.Request{Op: csnet.OpGossip, Value: encode(msg)})
	if err != nil {
		b.Fatal(err)
	}
	w := workers["n0"]
	reply := w.ServeFrame(nil, frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reply = w.ServeFrame(reply[:0], frame)
	}
	b.StopTimer()
	resp, err := csnet.DecodeResponse(reply)
	if err != nil || resp.Status != csnet.StatusOK {
		b.Fatalf("reply %+v, %v", resp, err)
	}
	if in, err := parseMessage(resp.Value); err != nil || in.kind != want {
		b.Fatalf("reply kind %d, %v; want %d", in.kind, err, want)
	}
}

// BenchmarkHandlePing is the responder's side of a probe: a ping from
// a known member, whose piggybacked claims the table already holds,
// answered with an ack. allocgate.sh holds it to 0 allocs/op.
func BenchmarkHandlePing(b *testing.B) {
	benchServe(b, message{Kind: msgPing, From: "n1", Updates: []Update{
		{ID: "n0", State: StateAlive, Incarnation: 1},
		{ID: "n2", State: StateAlive, Incarnation: 1},
	}}, msgAck)
}

// BenchmarkHandleSync is the responder's side of an anti-entropy sync:
// a known member's whole table in, n0's whole table out. allocgate.sh
// holds it to 0 allocs/op.
func BenchmarkHandleSync(b *testing.B) {
	benchServe(b, message{Kind: msgSync, From: "n1", Updates: []Update{
		{ID: "n0", State: StateAlive, Incarnation: 1},
		{ID: "n1", State: StateAlive, Incarnation: 1},
		{ID: "n2", State: StateAlive, Incarnation: 1},
	}}, msgSyncAck)
}

// BenchmarkProbeRound is one protocol round of n0 — a ping, or every
// syncEvery-th round a sync, and the suspicion sweep — against warm
// peers, both ends counted: the prober's encode and decode, and the
// peer's handler serving it in a worker. allocgate.sh holds it to 0
// allocs/op.
func BenchmarkProbeRound(b *testing.B) {
	lists, _ := warmTrio(b)
	n0 := lists[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n0.round(i + 1)
	}
	b.StopTimer()
	if got := n0.NumAlive(); got != 3 {
		b.Fatalf("n0 sees %d alive after the rounds, want 3", got)
	}
}
