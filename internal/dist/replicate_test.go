package dist

import (
	"errors"
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
	ops := []struct {
		name string
		do   func(c *Cluster) error
	}{
		{"Set", func(c *Cluster) error { return c.Set(key, []byte("v1")) }},
		{"MSet", func(c *Cluster) error { return c.MSet([]string{key}, [][]byte{[]byte("v1")}) }},
		{"Del", func(c *Cluster) error { _, err := c.Del(key); return err }},
		{"MDel", func(c *Cluster) error { _, err := c.MDel([]string{key}); return err }},
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
				if got := c.Hints(victim); got != f.wantHints {
					t.Errorf("Hints(victim) = %d, want %d", got, f.wantHints)
				}
				if now := c.clock.Next(); now <= newer {
					t.Errorf("clock at %d did not advance past the newer resident version %d", now, newer)
				}
				if _, cached := c.cache.get(key, cacheNow()); cached != f.wantCached {
					t.Errorf("cache serves the key: %v, want %v", cached, f.wantCached)
				}
			})
		}
	}
}
