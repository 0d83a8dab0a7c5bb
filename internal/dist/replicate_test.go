package dist

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/store"
	"pdcedu/internal/trace"
)

// TestMDelNoLiveBackends is the regression for MDel drifting from Del:
// with every backend out of the ring a delete reaches nobody, so it
// must fail and must not cache a tombstone — the key is still there
// once the backends return.
func TestMDelNoLiveBackends(t *testing.T) {
	_, addrs := startBackends(t, 2)
	c, err := NewCluster(ClusterConfig{Addrs: addrs, Replication: 2, Timeout: 5 * time.Second, ReadCache: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.MarkDown(0)
	c.MarkDown(1)
	if n, err := c.MDel([]string{"k"}); err == nil || n != 0 {
		t.Fatalf("MDel with no live backends = %d, %v; want 0 and an error", n, err)
	}
	if _, err := c.Del("k"); err == nil {
		t.Fatal("Del with no live backends returned no error")
	}
	c.MarkUp(0)
	c.MarkUp(1)
	if v, ok, err := c.Get("k"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after heal = %q, %v, %v; a delete that reached nobody removed the key", v, ok, err)
	}
}

// TestMGetFallbackAccounting pins what one absent key costs through
// MGet at rf=2: the walk resumes at the second replica under the mget
// trace, so it is one cache miss, no get-latency sample, and exactly
// one GETV per replica.
func TestMGetFallbackAccounting(t *testing.T) {
	_, addrs := startBackends(t, 3)
	coord := trace.New(trace.Config{Node: "coordinator"})
	coord.SetEnabled(true)
	coord.SetSampleEvery(1)
	c, err := NewCluster(ClusterConfig{Addrs: addrs, Replication: 2, Timeout: 5 * time.Second, ReadCache: 64, Tracer: coord})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	misses, gets := distM.cacheMiss.Value(), distM.latGet.Snapshot().Count
	got, err := c.MGet([]string{"absent"})
	if err != nil || len(got) != 0 {
		t.Fatalf("MGet(absent) = %v, %v", got, err)
	}
	if d := distM.cacheMiss.Value() - misses; d != 1 {
		t.Errorf("dist.cache.misses grew by %d, want 1", d)
	}
	if d := distM.latGet.Snapshot().Count - gets; d != 0 {
		t.Errorf("dist.op_latency.get took %d samples from an MGet, want 0", d)
	}
	getvs := 0
	for _, s := range coord.TraceSpans(findRoot(t, coord, "mget")) {
		if s.Kind == trace.KindRPC && s.Op == "GETV" {
			getvs++
		}
	}
	if getvs != 2 {
		t.Errorf("mget trace holds %d GETV spans, want 2 (one per replica)", getvs)
	}
}

// sheddingBackend is a KV backend that can be told to answer every
// write with StatusBusy, as admission control would under overload.
type sheddingBackend struct {
	kv   *csnet.KVHandler
	busy atomic.Bool
}

func (s *sheddingBackend) Serve(r csnet.Request) csnet.Response {
	if s.busy.Load() && (r.Op == csnet.OpSetV || r.Op == csnet.OpDelV) {
		return csnet.Response{Status: csnet.StatusBusy}
	}
	return s.kv.Serve(r)
}

// TestWriteOpsAgreeOnReplicaFaults runs the same replica faults through
// Set, MSet of one key, Del and MDel of one key and holds all four to
// one contract — hints queued, ErrBusy visibility, clock advance, and
// what the read cache is left holding. The cluster is write-all
// (quorum = rf) so that a set, like a delete, fails on any replica
// fault and the four ops are comparable row for row.
func TestWriteOpsAgreeOnReplicaFaults(t *testing.T) {
	const key = "k"
	// The x3 rows put two more keys in the burst, so each replica's share
	// travels as a batch frame rather than a plain one: same contract.
	three := []string{key, "k2", "k3"}
	ops := []struct {
		name string
		keys int
		do   func(c *Cluster) error
	}{
		{"Set", 1, func(c *Cluster) error { return c.Set(key, []byte("v1")) }},
		{"MSet", 1, func(c *Cluster) error { return c.MSet([]string{key}, [][]byte{[]byte("v1")}) }},
		{"Del", 1, func(c *Cluster) error { _, err := c.Del(key); return err }},
		{"MDel", 1, func(c *Cluster) error { _, err := c.MDel([]string{key}); return err }},
		{"MSetx3", 3, func(c *Cluster) error {
			return c.MSet(three, [][]byte{[]byte("v1"), []byte("v1"), []byte("v1")})
		}},
		{"MDelx3", 3, func(c *Cluster) error { _, err := c.MDel(three); return err }},
	}
	faults := []struct {
		name                          string
		wantErr, wantBusy, wantCached bool
		wantHints                     int
		dead, busy, holdsNewer        bool
	}{
		{name: "healthy", wantCached: true},
		{name: "connection dead", dead: true, wantErr: true, wantHints: 1},
		{name: "replica busy", busy: true, wantErr: true, wantBusy: true},
		{name: "replica holds newer", holdsNewer: true},
	}
	for _, f := range faults {
		for _, op := range ops {
			t.Run(f.name+"/"+op.name, func(t *testing.T) {
				backends := make([]*sheddingBackend, 3)
				srvs := make([]*csnet.Server, 3)
				addrs := make([]string, 3)
				for i := range backends {
					backends[i] = &sheddingBackend{kv: csnet.NewKVHandler()}
					srvs[i] = csnet.NewServer(backends[i], 16)
					addr, err := srvs[i].Start("127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(srvs[i].Shutdown)
					addrs[i] = addr
				}
				c, err := NewCluster(ClusterConfig{Addrs: addrs, Replication: 3, WriteQuorum: 3, Timeout: time.Second, ReadCache: 64})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if err := c.Set(key, []byte("v0")); err != nil {
					t.Fatal(err)
				}
				victim := c.ReplicaSet(key)[1]
				var newer uint64
				switch {
				case f.dead:
					srvs[victim].Shutdown()
				case f.busy:
					backends[victim].busy.Store(true)
				case f.holdsNewer:
					newer = c.clock.Next() + 1<<30
					if _, applied := backends[victim].kv.Engine().Merge(key, store.Entry{Value: []byte("theirs"), Version: newer}); !applied {
						t.Fatal("direct merge not applied")
					}
				}

				err = op.do(c)
				if (err != nil) != f.wantErr {
					t.Errorf("err = %v, want error: %v", err, f.wantErr)
				}
				if got := errors.Is(err, csnet.ErrBusy); got != f.wantBusy {
					t.Errorf("errors.Is(err, ErrBusy) = %v, want %v (err: %v)", got, f.wantBusy, err)
				}
				if got := c.Hints(victim); got != f.wantHints*op.keys {
					t.Errorf("Hints(victim) = %d, want %d", got, f.wantHints*op.keys)
				}
				if now := c.clock.Next(); now <= newer {
					t.Errorf("clock at %d did not advance past the newer resident version %d", now, newer)
				}
				if _, cached := c.cache.get(key); cached != f.wantCached {
					t.Errorf("cache serves the key: %v, want %v", cached, f.wantCached)
				}
			})
		}
	}
}

// peerFrames is a backend's frame layer as a test can shape it. Left
// zero it is a build from before OpBatch: the envelope decodes as a
// request, reaches the handler, and is refused as an unknown op. With
// short set it serves the envelope but drops that many responses from
// the end of each reply; with busy set it sheds every envelope whole,
// StatusBusy, as admission control does a frame it has no room for.
type peerFrames struct {
	h     csnet.Handler
	short int
	busy  bool
}

func (p peerFrames) ServeFrame(dst, body []byte, _ csnet.FrameMeta) []byte {
	req, err := csnet.DecodeRequest(body)
	if err != nil {
		return csnet.AppendResponse(dst, csnet.Response{Status: csnet.StatusError, Value: []byte(err.Error())})
	}
	if req.Op == csnet.OpBatch && p.busy {
		return csnet.AppendResponse(dst, csnet.Response{Status: csnet.StatusBusy})
	}
	if req.Op == csnet.OpBatch && p.short > 0 {
		items, _ := csnet.DecodeBatch(req.Value)
		reply := csnet.AppendBatchHeader(nil, items.Len()-p.short)
		for items.Len() > 0 {
			item, _ := items.Next()
			served := peerFrames{h: p.h}.ServeFrame(nil, item, csnet.FrameMeta{})
			if items.Len() >= p.short {
				reply = csnet.AppendBatchItem(reply, served)
			}
		}
		return csnet.AppendResponse(dst, csnet.Response{Status: csnet.StatusOK, Value: reply})
	}
	if csnet.Versioned(req.Op) {
		return csnet.AppendResponseV(dst, p.h.Serve(req))
	}
	return csnet.AppendResponse(dst, p.h.Serve(req))
}

// startMixedCluster boots three KV backends, backend 1 behind frames
// (its handler filled in here), and a write-all cluster over them.
func startMixedCluster(t *testing.T, frames peerFrames) ([]*csnet.KVHandler, *Cluster) {
	t.Helper()
	kvs := make([]*csnet.KVHandler, 3)
	addrs := make([]string, 3)
	for i := range kvs {
		kvs[i] = csnet.NewKVHandler()
		srv := csnet.NewServer(kvs[i], 16)
		if i == 1 {
			frames.h = kvs[i]
			srv = csnet.NewFrameServer(frames, 16)
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Shutdown)
		addrs[i] = addr
	}
	c, err := NewCluster(ClusterConfig{Addrs: addrs, Replication: 3, WriteQuorum: 3, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return kvs, c
}

// TestBurstDeclinedByOldPeer is the mixed-build contract: a replica
// that answers the batch frame "unknown op" is alive and declining, so
// every mutation of the burst books a fault for it that is not hinted —
// a replay would be declined again — and none books an ack. Single-key
// writes, which travel as plain frames, still reach it.
func TestBurstDeclinedByOldPeer(t *testing.T) {
	kvs, c := startMixedCluster(t, peerFrames{})
	keys, values := batchKeys("mixed", 8)

	err := c.MSet(keys, values)
	var pw *PartialWriteError
	if !errors.As(err, &pw) {
		t.Fatalf("MSet with an old replica = %v, want *PartialWriteError", err)
	}
	if pw.MissedKeys != len(keys) || len(pw.Hinted) != 0 || len(pw.Acked) != 2 {
		t.Errorf("PartialWriteError = %+v, want every key short, two acks, nothing hinted", pw)
	}
	if cause := pw.Causes[1]; cause == nil || !strings.Contains(cause.Error(), "unknown op") {
		t.Errorf("cause for the old replica = %v, want its \"unknown op\"", cause)
	}
	if c.Hints(1) != 0 {
		t.Errorf("%d hints queued for a replica that declined", c.Hints(1))
	}
	if kvs[0].Len() != len(keys) || kvs[1].Len() != 0 || kvs[2].Len() != len(keys) {
		t.Errorf("backends hold %d/%d/%d keys, want %d/0/%d", kvs[0].Len(), kvs[1].Len(), kvs[2].Len(), len(keys), len(keys))
	}
	if _, err := c.MDel(keys[:3]); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("MDel with an old replica = %v, want its \"unknown op\"", err)
	}

	if err := c.Set("alone", []byte("v")); err != nil {
		t.Fatalf("single-key Set in a mixed cluster: %v", err)
	}
	if _, ok := kvs[1].Engine().Get("alone"); !ok {
		t.Error("the old replica did not take a plain frame")
	}
	// Repair bursts meet the same refusal: nothing copied, nothing lost,
	// and the pass after it finds the same work still to do.
	if st, _ := c.Rebalance(); st.Streamed != 0 {
		t.Errorf("Rebalance copied %d entries onto a replica that declines batches", st.Streamed)
	}
}

// TestBurstShortReply: a replica whose batch reply carries fewer
// responses than the frame had entries has acked exactly those; the
// missing tail is a fault for each mutation in it.
func TestBurstShortReply(t *testing.T) {
	kvs, c := startMixedCluster(t, peerFrames{short: 2})
	keys, values := batchKeys("short", 6)
	err := c.MSet(keys, values)
	var pw *PartialWriteError
	if !errors.As(err, &pw) {
		t.Fatalf("MSet with a short-replying replica = %v, want *PartialWriteError", err)
	}
	if pw.MissedKeys != 2 || pw.Key != keys[4] {
		t.Errorf("PartialWriteError = %+v, want the last two keys short, %q first", pw, keys[4])
	}
	if pw.Causes[1] == nil {
		t.Errorf("no cause booked for the short reply: %+v", pw)
	}
	if kvs[1].Len() != len(keys) {
		t.Errorf("the replica applied %d of %d entries", kvs[1].Len(), len(keys))
	}
}
