package dist

import (
	"fmt"
	"testing"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/store"
)

// startVersionedPair boots two KV backends and a 2-replica cluster
// with quorum 1, returning the handlers (for direct engine
// inspection), their addresses, and the cluster.
func startVersionedPair(t *testing.T) ([2]*csnet.KVHandler, [2]*csnet.Server, []string, *Cluster) {
	t.Helper()
	var kvs [2]*csnet.KVHandler
	var srvs [2]*csnet.Server
	addrs := make([]string, 2)
	for i := range srvs {
		kvs[i] = csnet.NewKVHandler()
		srvs[i] = csnet.NewServer(kvs[i], 16)
		addr, err := srvs[i].Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		t.Cleanup(srvs[i].Shutdown)
	}
	c, err := NewCluster(ClusterConfig{
		Addrs: addrs, Replication: 2, WriteQuorum: 1, Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return kvs, srvs, addrs, c
}

// TestVersionStaleHintReplayLoses is the acceptance regression for the
// tentpole: a hint captured against an old write and replayed *after*
// a newer write has already reached the backend must lose — with the
// old unversioned SET replay this exact sequence overwrote the new
// value with the stale one.
func TestVersionStaleHintReplayLoses(t *testing.T) {
	kvs, srvs, addrs, c := startVersionedPair(t)

	// Backend 1 is briefly unreachable: the write lands on backend 0
	// and queues a stale-to-be hint for backend 1.
	srvs[1].Shutdown()
	if err := c.Set("k", []byte("old")); err != nil {
		t.Fatalf("degraded Set: %v", err)
	}
	if got := c.Hints(1); got != 1 {
		t.Fatalf("Hints(1) = %d, want 1", got)
	}

	// Backend 1 returns (same store — a blip, not a crash) and a newer
	// write reaches every replica while the old hint is still queued.
	srvs[1] = csnet.NewServer(kvs[1], 16)
	if _, err := srvs[1].Start(addrs[1]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srvs[1].Shutdown)
	if err := c.Set("k", []byte("new")); err != nil {
		t.Fatalf("healthy Set: %v", err)
	}
	if resp := kvs[1].Serve(csnet.Request{Op: csnet.OpGetV, Key: "k"}); string(resp.Value) != "new" {
		t.Fatalf("setup: backend 1 = %q, want new", resp.Value)
	}

	// Force the stale hint to replay now, after the newer write: it
	// must merge as a loser, not overwrite.
	c.MarkDown(1)
	c.MarkUp(1)
	if got := c.Hints(1); got != 0 {
		t.Fatalf("Hints(1) = %d after replay, want 0 (an obsolete hint is delivered-and-dropped)", got)
	}
	resp := kvs[1].Serve(csnet.Request{Op: csnet.OpGetV, Key: "k"})
	if resp.Status != csnet.StatusOK || string(resp.Value) != "new" {
		t.Fatalf("backend 1 after stale replay = %s %q, want OK \"new\"", resp.Status, resp.Value)
	}
	if v, ok, err := c.Get("k"); err != nil || !ok || string(v) != "new" {
		t.Fatalf("cluster Get after stale replay = %q %v %v, want new", v, ok, err)
	}
}

// TestVersionRebalanceConvergesStaleCopy pins the rebalancer upgrade:
// set-if-absent could fill holes but never fix an occupied slot, so a
// backend holding an older version of a key kept it forever. The
// version-aware rebalancer must stream the newer entry over the stale
// one — and never the other way around.
func TestVersionRebalanceConvergesStaleCopy(t *testing.T) {
	kvs, _, addrs, c := startVersionedPair(t)

	cl0, err := csnet.Dial(addrs[0], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl0.Close()
	cl1, err := csnet.Dial(addrs[1], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()

	// Backend 1 holds a stale version, backend 0 the fresh one.
	if _, _, err := cl1.SetV("k", []byte("stale"), 100); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl0.SetV("k", []byte("fresh"), 200); err != nil {
		t.Fatal(err)
	}

	st, err := c.Rebalance()
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if st.Streamed != 1 {
		t.Errorf("rebalance streamed %d entries, want 1 (the stale copy)", st.Streamed)
	}
	for b, kv := range kvs {
		e, ok := kv.Engine().Get("k")
		if !ok || string(e.Value) != "fresh" || e.Version != 200 {
			t.Fatalf("backend %d after rebalance = %+v %v, want fresh@200", b, e, ok)
		}
	}
	// Converged: a steady-state pass streams nothing.
	if st, err = c.Rebalance(); err != nil || st.Streamed != 0 {
		t.Fatalf("steady-state rebalance = %d %v, want 0 nil", st.Streamed, err)
	}
}

// TestVersionRebalanceTombstoneTie pins the Entry.Wins tie-break in
// the rebalancer: two coordinators stamping the same version in the
// same millisecond — one a write, one a delete — must converge the
// cluster to deleted, exactly as the engines' merge rule dictates,
// instead of the planner treating equal versions as already converged.
func TestVersionRebalanceTombstoneTie(t *testing.T) {
	kvs, _, addrs, c := startVersionedPair(t)
	cl0, err := csnet.Dial(addrs[0], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl0.Close()
	cl1, err := csnet.Dial(addrs[1], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	if _, _, err := cl0.SetV("k", []byte("val"), 100); err != nil {
		t.Fatal(err)
	}
	if resp, err := cl1.Send(csnet.Request{Op: csnet.OpDelV, Key: "k", Version: 100}).ResponseV(); err != nil || resp.Status == csnet.StatusError {
		t.Fatalf("DelV = %+v %v", resp, err)
	}
	if _, err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	_, e, ok := kvs[0].Engine().AppendLoad(nil, "k")
	if !ok || !e.Tombstone || e.Version != 100 {
		t.Fatalf("backend 0 after tie rebalance = %+v %v, want tombstone@100", e, ok)
	}
	if _, ok, err := c.Get("k"); err != nil || ok {
		t.Fatalf("Get of tie-deleted key = %v %v, want miss", ok, err)
	}
}

// TestVersionReadRepairHonorsTombstone pins the read path: when a
// replica consulted earlier holds a tombstone newer than the value a
// later replica returns, the key is deleted — a read through any entry
// point must report a miss and push the tombstone at the stale holder
// instead of resurrecting the value (the old miss-based repair had no
// way to even notice).
func TestVersionReadRepairHonorsTombstone(t *testing.T) {
	for _, r := range readers {
		t.Run(r.name, func(t *testing.T) {
			kvs, _, addrs, c := startVersionedPair(t)
			// A key whose primary is backend 0, so the read sees the
			// tombstone before the stale value.
			key := keyWithPrimary(t, c, "probe", 0)

			cl0, err := csnet.Dial(addrs[0], time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer cl0.Close()
			cl1, err := csnet.Dial(addrs[1], time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer cl1.Close()
			if _, _, err := cl1.SetV(key, []byte("zombie"), 100); err != nil {
				t.Fatal(err)
			}
			if resp, err := cl0.Send(csnet.Request{Op: csnet.OpDelV, Key: key, Version: 200}).ResponseV(); err != nil || resp.Status == csnet.StatusError {
				t.Fatalf("DelV = %+v %v", resp, err)
			}

			if v, ok, err := r.read(c, key); err != nil || ok {
				t.Fatalf("read of deleted key = %q %v %v, want miss", v, ok, err)
			}
			// The stale holder received the tombstone.
			_, e, ok := kvs[1].Engine().AppendLoad(nil, key)
			if !ok || !e.Tombstone || e.Version != 200 {
				t.Fatalf("backend 1 after repair = %+v %v, want tombstone@200", e, ok)
			}
		})
	}
}

// keyWithPrimary finds a key named prefix-N whose primary is backend b.
func keyWithPrimary(t *testing.T, c *Cluster, prefix string, b int) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if set := c.replicaSet(k); len(set) == c.rf && set[0] == b {
			return k
		}
	}
	t.Fatalf("no key with backend %d as primary in 256 probes", b)
	return ""
}

// TestVersionClusterWritesAgreeAcrossReplicas pins coordinator
// stamping: one Set lands with the same version on every replica, so
// steady-state rebalance listings agree and stream nothing.
func TestVersionClusterWritesAgreeAcrossReplicas(t *testing.T) {
	kvs, _, _, c := startVersionedPair(t)
	for i := 0; i < 50; i++ {
		if err := c.Set(fmt.Sprintf("k-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k-%d", i)
		var vers [2]store.Entry
		for b, kv := range kvs {
			_, e, ok := kv.Engine().AppendLoad(nil, k)
			if !ok {
				t.Fatalf("backend %d missing %q", b, k)
			}
			vers[b] = e
		}
		if vers[0].Version != vers[1].Version {
			t.Fatalf("replicas disagree on %q: %d vs %d", k, vers[0].Version, vers[1].Version)
		}
	}
	if st, err := c.Rebalance(); err != nil || st.Streamed != 0 {
		t.Fatalf("steady-state rebalance = %d %v, want 0 nil", st.Streamed, err)
	}
}
