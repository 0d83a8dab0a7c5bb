package dist

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/member"
)

// clusterNode is one test cluster member: a csnet server carrying both
// the KV data plane and the SWIM gossip control plane on one port.
type clusterNode struct {
	addr string
	srv  *csnet.Server
	kv   *csnet.KVHandler
	ml   *member.Memberlist
}

// startClusterNode boots a node on addr ("127.0.0.1:0" for a fresh
// port) and joins it to seeds. It listens first, so the memberlist's
// ID is the bound address peers dial.
func startClusterNode(t *testing.T, addr string, seeds ...string) *clusterNode {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("start node %s: %v", addr, err)
	}
	n := &clusterNode{addr: ln.Addr().String(), kv: csnet.NewKVHandler()}
	n.ml, err = member.New(member.Config{
		ID:               n.addr,
		ProbeInterval:    20 * time.Millisecond,
		SuspicionTimeout: 120 * time.Millisecond,
		ConnTimeout:      time.Second,
	})
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	n.srv = csnet.NewServer(n.ml.Handler(n.kv), 64)
	if err := n.srv.Serve(ln); err != nil {
		t.Fatalf("start node %s: %v", addr, err)
	}
	if err := n.ml.Join(seeds...); err != nil {
		t.Fatalf("join %s: %v", n.addr, err)
	}
	n.ml.Start()
	return n
}

// kill simulates a crash: the probe loop stops and the port goes dark.
func (n *clusterNode) kill() {
	n.ml.Stop()
	n.srv.Shutdown()
}

// has reports whether the node's local store holds key (asked of the
// handler directly, bypassing the network).
func (n *clusterNode) has(key string) bool {
	return n.kv.Serve(csnet.Request{Op: csnet.OpGetV, Key: key}).Status == csnet.StatusOK
}

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestMemberChurnEndToEnd is the acceptance churn test: five nodes,
// 1000 keys written while one node is killed mid-load, every key still
// readable, the dead node marked down within the suspicion
// window, and — after a restart with an empty store — hint replay plus
// the rebalancer converging every replica.
func TestMemberChurnEndToEnd(t *testing.T) {
	const (
		nNodes = 5
		nKeys  = 1000
		rf     = 3
		victim = 3
	)
	nodes := make([]*clusterNode, nNodes)
	nodes[0] = startClusterNode(t, "127.0.0.1:0")
	seed := nodes[0].addr
	addrs := make([]string, nNodes)
	addrs[0] = seed
	for i := 1; i < nNodes; i++ {
		nodes[i] = startClusterNode(t, "127.0.0.1:0", seed)
		addrs[i] = nodes[i].addr
	}
	defer func() {
		for _, n := range nodes {
			n.kill()
		}
	}()
	for _, n := range nodes {
		n := n
		waitUntil(t, 10*time.Second, "membership convergence", func() bool {
			return n.ml.NumAlive() == nNodes
		})
	}

	c, err := NewCluster(ClusterConfig{Addrs: addrs, Replication: rf, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stopWatch := c.Watch(nodes[0].ml)
	defer stopWatch()

	key := func(i int) string { return fmt.Sprintf("churn-key-%d", i) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

	// First half of the load against the healthy cluster.
	for i := 0; i < nKeys/2; i++ {
		if err := c.Set(key(i), val(i)); err != nil {
			t.Fatalf("healthy Set(%d): %v", i, err)
		}
	}

	// Kill one node mid-load. With rf=3 and quorum 2, the remaining
	// writes keep succeeding; writes that catch the dead replica before
	// eviction queue hints for it.
	killedAt := time.Now()
	nodes[victim].kill()
	for i := nKeys / 2; i < nKeys; i++ {
		if err := c.Set(key(i), val(i)); err != nil {
			t.Fatalf("Set(%d) with one node down: %v", i, err)
		}
	}

	// The detector must declare the node dead and the watch must evict
	// it from the placement ring within the suspicion window (probe
	// rotation + suspicion timeout; generous bound for -race CI boxes).
	waitUntil(t, 10*time.Second, "victim eviction", func() bool {
		return c.IsDown(victim)
	})
	evictionTook := time.Since(killedAt)
	if evictionTook > 5*time.Second {
		t.Errorf("eviction took %v, want within the suspicion window", evictionTook)
	}
	if live := c.Live(); live != nNodes-1 {
		t.Errorf("Live() = %d after eviction, want %d", live, nNodes-1)
	}
	hinted := c.Hints(victim)
	if hinted == 0 {
		t.Error("no hints queued for the dead node (expected writes in the detection window)")
	}

	// Every key must still be readable through the degraded cluster.
	for i := 0; i < nKeys; i++ {
		v, ok, err := c.Get(key(i))
		if err != nil || !ok || string(v) != string(val(i)) {
			t.Fatalf("Get(%d) with one node down = %q %v %v", i, v, ok, err)
		}
	}

	// Restart the victim with an EMPTY store (a real crash lost its
	// data). Rejoining makes it refute the dead claim; the watch then
	// replays hints and readmits it to the ring.
	nodes[victim] = startClusterNode(t, nodes[victim].addr, seed)
	waitUntil(t, 10*time.Second, "victim readmission", func() bool {
		return !c.IsDown(victim)
	})
	if c.Hints(victim) != 0 {
		t.Errorf("%d hints still queued after replay", c.Hints(victim))
	}
	if live := c.Live(); live != nNodes {
		t.Errorf("Live() = %d after readmission, want %d", live, nNodes)
	}

	// Converge deterministically (the background rebalance also runs;
	// Rebalance passes are serialized and version-aware merge is
	// idempotent), then
	// check full replication: every key present on every member of its
	// replica set (replicaSet reflects the healed, fully restored ring).
	if _, err := c.Rebalance(); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	for i := 0; i < nKeys; i++ {
		for _, b := range c.replicaSet(key(i)) {
			if !nodes[b].has(key(i)) {
				t.Fatalf("key %d missing on replica %d after converge", i, b)
			}
		}
	}
	// And the client sees every key.
	got, err := c.MGet([]string{key(0), key(nKeys / 2), key(nKeys - 1)})
	if err != nil || len(got) != 3 {
		t.Fatalf("MGet after converge = %d keys, err %v", len(got), err)
	}
}

// TestMemberPartialWriteError pins the typed partial-write error: a
// write that cannot reach quorum reports exactly which replicas acked,
// which were hinted, and why the rest failed.
func TestMemberPartialWriteError(t *testing.T) {
	srvA := csnet.NewServer(csnet.NewKVHandler(), 16)
	addrA, err := srvA.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Shutdown()
	srvB := csnet.NewServer(csnet.NewKVHandler(), 16)
	addrB, err := srvB.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c, err := NewCluster(ClusterConfig{
		Addrs:       []string{addrA, addrB},
		Replication: 2,
		WriteQuorum: 2, // strict write-all: one dead replica fails the write
		Timeout:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatalf("healthy Set: %v", err)
	}

	srvB.Shutdown() // dead but not yet evicted: still in the ring

	err = c.Set("k", []byte("v2"))
	var pw *PartialWriteError
	if !errors.As(err, &pw) {
		t.Fatalf("Set with dead replica = %v, want *PartialWriteError", err)
	}
	if pw.Op != "set" || pw.Key != "k" || pw.Quorum != 2 || pw.MissedKeys != 1 {
		t.Errorf("PartialWriteError = %+v, want op=set key=k quorum=2 missed=1", pw)
	}
	if len(pw.Acked) != 1 || len(pw.Hinted) != 1 || len(pw.Causes) != 1 {
		t.Errorf("acked %v hinted %v causes %v, want one of each", pw.Acked, pw.Hinted, pw.Causes)
	}
	if c.Hints(pw.Hinted[0]) == 0 {
		t.Error("hinted backend has no queued hint")
	}

	// MSet aggregates: every key misses quorum, the error counts them.
	keys := []string{"a", "b", "c"}
	vals := [][]byte{[]byte("1"), []byte("2"), []byte("3")}
	err = c.MSet(keys, vals)
	if !errors.As(err, &pw) {
		t.Fatalf("MSet with dead replica = %v, want *PartialWriteError", err)
	}
	if pw.Op != "mset" || pw.MissedKeys != len(keys) {
		t.Errorf("MSet error = %+v, want op=mset missed=%d", pw, len(keys))
	}
	// The acked minority is durable: the surviving replica serves reads.
	if v, ok, err := c.Get("a"); err != nil || !ok || string(v) != "1" {
		t.Errorf("Get(a) after partial MSet = %q %v %v", v, ok, err)
	}
}

// TestMemberHintedHandoff walks the hint lifecycle by hand: a write
// that fails on a down replica queues a hint; MarkUp replays it into
// the replica before the ring readmits it; a failed replay requeues.
func TestMemberHintedHandoff(t *testing.T) {
	kvs := [2]*csnet.KVHandler{csnet.NewKVHandler(), csnet.NewKVHandler()}
	srvs := [2]*csnet.Server{}
	addrs := make([]string, 2)
	for i := range srvs {
		srvs[i] = csnet.NewServer(kvs[i], 16)
		addr, err := srvs[i].Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
	}
	defer srvs[0].Shutdown()

	c, err := NewCluster(ClusterConfig{
		Addrs:       addrs,
		Replication: 2,
		WriteQuorum: 1, // degraded writes succeed on the survivor
		Timeout:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	srvs[1].Shutdown()
	if err := c.Set("grade", []byte("A")); err != nil {
		t.Fatalf("quorum-1 Set with dead replica: %v", err)
	}
	if got := c.Hints(1); got != 1 {
		t.Fatalf("Hints(1) = %d after failed replica write, want 1", got)
	}
	// A newer write supersedes the queued hint rather than stacking.
	if err := c.Set("grade", []byte("A+")); err != nil {
		t.Fatal(err)
	}
	if got := c.Hints(1); got != 1 {
		t.Fatalf("Hints(1) = %d after supersede, want 1", got)
	}

	if !c.MarkDown(1) {
		t.Fatal("MarkDown(1) reported no transition")
	}
	if c.MarkDown(1) {
		t.Fatal("second MarkDown reported a transition")
	}
	// MarkUp against a still-dead backend: the replay fails and the
	// hint must survive for the next attempt.
	if !c.MarkUp(1) {
		t.Fatal("MarkUp(1) reported no transition")
	}
	if got := c.Hints(1); got != 1 {
		t.Fatalf("Hints(1) = %d after failed replay, want 1 (requeued)", got)
	}

	// Revive backend 1 empty and replay for real.
	c.MarkDown(1)
	kvs[1] = csnet.NewKVHandler()
	srvs[1] = csnet.NewServer(kvs[1], 16)
	if _, err := srvs[1].Start(addrs[1]); err != nil {
		t.Fatal(err)
	}
	defer srvs[1].Shutdown()
	if !c.MarkUp(1) {
		t.Fatal("MarkUp after revival reported no transition")
	}
	if got := c.Hints(1); got != 0 {
		t.Fatalf("Hints(1) = %d after replay, want 0", got)
	}
	resp := kvs[1].Serve(csnet.Request{Op: csnet.OpGetV, Key: "grade"})
	if resp.Status != csnet.StatusOK || string(resp.Value) != "A+" {
		t.Fatalf("replayed hint = %s %q, want OK \"A+\" (the superseding write)", resp.Status, resp.Value)
	}
}

// TestHintQueueBound fills an unreachable replica's hint queue past
// maxHintsPerNode: the queue stops at the bound, each write past it is
// counted as dropped, and a rejoin drains the queue.
func TestHintQueueBound(t *testing.T) {
	const victim, over = 1, 100
	kvs, srvs, c := startWrappedKVCluster(t, 2, ClusterConfig{Replication: 2, WriteQuorum: 1}, nil, nil)
	srvs[victim].Shutdown() // unreachable but still in the ring: every write hints it
	keys, values := batchKeys("bound", maxHintsPerNode+over)
	dropped := distM.hintsDropped.Value()
	if err := c.MSet(keys, values); err != nil {
		t.Fatalf("quorum-1 MSet with one replica unreachable: %v", err)
	}
	if got := c.Hints(victim); got != maxHintsPerNode {
		t.Fatalf("Hints(victim) = %d, want the bound %d", got, maxHintsPerNode)
	}
	if d := distM.hintsDropped.Value() - dropped; d != over {
		t.Errorf("dist.hints.dropped grew by %d, want the %d writes past the bound", d, over)
	}

	srv := csnet.NewServer(kvs[victim], 64)
	if _, err := srv.Start(c.pools[victim].Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	c.MarkDown(victim)
	c.MarkUp(victim)
	if got := c.Hints(victim); got != 0 {
		t.Fatalf("Hints(victim) = %d after rejoin, want the queue drained", got)
	}
	if got := kvs[victim].Len(); got < maxHintsPerNode {
		t.Errorf("rejoined replica holds %d keys, want at least the %d replayed", got, maxHintsPerNode)
	}
}

// TestMemberRebalance checks the key-streaming pass: evicting a node
// re-replicates its keys onto the stand-in replicas, and readmitting it
// restores full replication on the original geometry.
func TestMemberRebalance(t *testing.T) {
	const nodes, rf, nKeys = 3, 2, 120
	kvs := make([]*csnet.KVHandler, nodes)
	srvs := make([]*csnet.Server, nodes)
	addrs := make([]string, nodes)
	for i := range srvs {
		kvs[i] = csnet.NewKVHandler()
		srvs[i] = csnet.NewServer(kvs[i], 16)
		addr, err := srvs[i].Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		defer srvs[i].Shutdown()
	}
	c, err := NewCluster(ClusterConfig{Addrs: addrs, Replication: rf, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	key := func(i int) string { return fmt.Sprintf("rb-%d", i) }
	for i := 0; i < nKeys; i++ {
		if err := c.Set(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Evict node 0 (its server stays up — a drain, not a crash) and
	// stream: every key must be fully replicated on the 2-node ring.
	c.MarkDown(0)
	if _, err := c.Rebalance(); err != nil {
		t.Fatalf("rebalance after eviction: %v", err)
	}
	holds := func(b int, k string) bool {
		return kvs[b].Serve(csnet.Request{Op: csnet.OpGetV, Key: k}).Status == csnet.StatusOK
	}
	for i := 0; i < nKeys; i++ {
		for _, b := range c.replicaSet(key(i)) {
			if !holds(b, key(i)) {
				t.Fatalf("key %d missing on replica %d after eviction rebalance", i, b)
			}
		}
	}

	// Readmit and stream again: the original replica sets are whole.
	c.MarkUp(0)
	st, err := c.Rebalance()
	if err != nil {
		t.Fatalf("rebalance after readmission: %v", err)
	}
	t.Logf("readmission rebalance filled %d holes", st.Streamed)
	for i := 0; i < nKeys; i++ {
		for _, b := range c.replicaSet(key(i)) {
			if !holds(b, key(i)) {
				t.Fatalf("key %d missing on replica %d after readmission rebalance", i, b)
			}
		}
	}
}

// TestMemberStaleHintAcrossOutage pins the versioned replacement for
// the old "second ring" machinery: a hint captured before eviction is
// stale by the time the node rejoins (a newer write landed while it
// was out of the live ring and therefore queued no hint), and the node
// must still converge to the newest value — the stale hint merges and
// is then overwritten by the version-aware rebalancer, or loses the
// merge outright if the rebalancer got there first. Either order
// works, which is the whole point.
func TestMemberStaleHintAcrossOutage(t *testing.T) {
	kvs := [2]*csnet.KVHandler{csnet.NewKVHandler(), csnet.NewKVHandler()}
	srvs := [2]*csnet.Server{}
	addrs := make([]string, 2)
	for i := range srvs {
		srvs[i] = csnet.NewServer(kvs[i], 16)
		addr, err := srvs[i].Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
	}
	defer srvs[0].Shutdown()
	c, err := NewCluster(ClusterConfig{
		Addrs: addrs, Replication: 2, WriteQuorum: 1, Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// v1 lands as a hint during the pre-eviction window...
	srvs[1].Shutdown()
	if err := c.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if got := c.Hints(1); got != 1 {
		t.Fatalf("Hints(1) = %d, want 1", got)
	}
	// ...the node is evicted, and a newer write arrives while it is out
	// of the live ring entirely — no hint for it anymore; the
	// rebalancer owns that convergence now.
	c.MarkDown(1)
	if err := c.Set("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}

	// The node restarts empty; rejoin replays the stale v1 hint, then
	// the rebalance pass streams v2 over it by version.
	kvs[1] = csnet.NewKVHandler()
	srvs[1] = csnet.NewServer(kvs[1], 16)
	if _, err := srvs[1].Start(addrs[1]); err != nil {
		t.Fatal(err)
	}
	defer srvs[1].Shutdown()
	c.MarkUp(1)
	if _, err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	resp := kvs[1].Serve(csnet.Request{Op: csnet.OpGetV, Key: "k"})
	if resp.Status != csnet.StatusOK || string(resp.Value) != "v2" {
		t.Fatalf("converged value = %s %q, want OK \"v2\" (not the stale v1)", resp.Status, resp.Value)
	}
}

// TestMemberDeleteTombstonePropagation pins the resurrection fix in
// its versioned form: a key deleted while a replica is out of the ring
// leaves a tombstone on the live replicas, and the rebalancer streams
// that tombstone to the rejoined replica's stale copy — no delete hint
// required (the evicted node gets none anymore) and no window where a
// dropped hint lets the stale copy re-seed the cluster.
func TestMemberDeleteTombstonePropagation(t *testing.T) {
	kvs := [2]*csnet.KVHandler{csnet.NewKVHandler(), csnet.NewKVHandler()}
	srvs := [2]*csnet.Server{}
	addrs := make([]string, 2)
	for i := range srvs {
		srvs[i] = csnet.NewServer(kvs[i], 16)
		addr, err := srvs[i].Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		defer srvs[i].Shutdown()
	}
	c, err := NewCluster(ClusterConfig{
		Addrs: addrs, Replication: 2, WriteQuorum: 1, Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Set("gone", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Backend 1 is declared dead (its server stays up: a false positive
	// or partition — the dangerous case, because it keeps a stale copy).
	c.MarkDown(1)
	if ok, err := c.Del("gone"); err != nil || !ok {
		t.Fatalf("Del = %v %v, want true nil", ok, err)
	}

	c.MarkUp(1)
	if _, err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if resp := kvs[1].Serve(csnet.Request{Op: csnet.OpGetV, Key: "gone"}); resp.Status != csnet.StatusNotFound {
		t.Fatalf("stale copy survived rejoin: %s %q", resp.Status, resp.Value)
	}
	if _, ok, err := c.Get("gone"); err != nil || ok {
		t.Fatalf("deleted key resurrected: ok=%v err=%v", ok, err)
	}
	// A second pass finds everything converged: nothing to stream.
	st, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if st.Streamed != 0 {
		t.Errorf("steady-state rebalance streamed %d entries, want 0", st.Streamed)
	}
}
