package dist

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/trace"
)

// startTracedBackends launches n csnet KV servers, each with its own
// trace recorder under a distinct node identity — the in-process
// equivalent of n distnode processes with tracing wired up.
func startTracedBackends(t testing.TB, n int) (handlers []*csnet.KVHandler, recs []*trace.Recorder, addrs []string) {
	t.Helper()
	for i := 0; i < n; i++ {
		rec := trace.New(trace.Config{Node: fmt.Sprintf("backend-%d", i)})
		h := csnet.NewKVHandler().WithTracer(rec)
		srv := csnet.NewServer(h, 64)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Shutdown)
		handlers = append(handlers, h)
		recs = append(recs, rec)
		addrs = append(addrs, addr)
	}
	return handlers, recs, addrs
}

// findRoot returns the trace ID of the coordinator's most recent root
// op span matching op.
func findRoot(t *testing.T, rec *trace.Recorder, op string) uint64 {
	t.Helper()
	var id uint64
	var start int64
	for _, s := range rec.Spans() {
		if s.Kind == trace.KindOp && s.Op == op && s.Start >= start {
			id, start = s.TraceID, s.Start
		}
	}
	if id == 0 {
		t.Fatalf("coordinator recorded no %q root span", op)
	}
	return id
}

// nodeSpans answers one OpTraces query the way an operator's tool
// does: the coordinator recorder's own spans (local) plus every
// backend's, pulled over a direct connection to each of addrs.
func nodeSpans(t *testing.T, addrs []string, mode byte, id uint64, local []trace.Span) []trace.Span {
	t.Helper()
	spans := append([]trace.Span(nil), local...)
	for _, addr := range addrs {
		cl, err := csnet.Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Traces(mode, id)
		cl.Close()
		if err != nil {
			t.Fatalf("traces of %s: %v", addr, err)
		}
		spans = append(spans, got...)
	}
	return spans
}

// clusterTrace assembles one trace's cross-node tree from every node's
// spans for its ID, or returns nil when no node holds any.
func clusterTrace(t *testing.T, coord *trace.Recorder, addrs []string, id uint64) *trace.Tree {
	t.Helper()
	for _, tree := range trace.Assemble(nodeSpans(t, addrs, csnet.TraceQueryID, id, coord.TraceSpans(id))) {
		if tree.TraceID == id {
			return tree
		}
	}
	return nil
}

// slowTraces assembles the tail-promoted traces visible across the
// cluster, slowest first, at most n. A node pins only its own spans of
// a slow trace, so every node is asked for each pinned trace's ID too.
func slowTraces(t *testing.T, coord *trace.Recorder, addrs []string, n int) []*trace.Tree {
	t.Helper()
	spans := nodeSpans(t, addrs, csnet.TraceQuerySlow, 0, coord.SlowSpans())
	ids := map[uint64]bool{}
	for _, s := range spans {
		ids[s.TraceID] = true
	}
	for id := range ids {
		spans = append(spans, nodeSpans(t, addrs, csnet.TraceQueryID, id, coord.TraceSpans(id))...)
	}
	trees := trace.Assemble(spans)
	sort.Slice(trees, func(i, j int) bool { return trees[i].Duration() > trees[j].Duration() })
	return trees[:min(n, len(trees))]
}

// TestClusterTraceEndToEnd drives a traced replicated write and a
// quorum read with an induced read-repair through a real multi-node
// cluster, then asserts each assembles — from the coordinator's spans
// and every backend's, pulled over the wire — into one cross-node
// tree: spans from at least two distinct nodes, server spans correctly
// parented under the coordinator's RPC hops, and the repair surfacing
// as a child span of the read's trace.
func TestClusterTraceEndToEnd(t *testing.T) {
	handlers, _, addrs := startTracedBackends(t, 3)
	coord := trace.New(trace.Config{Node: "coordinator"})
	coord.SetEnabled(true)
	coord.SetSampleEvery(1) // trace everything: the test drives single ops
	c, err := NewCluster(ClusterConfig{
		Addrs:       addrs,
		Replication: 2,
		Timeout:     5 * time.Second,
		Tracer:      coord,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Traced multi-replica write.
	if err := c.Set("grade", []byte("A")); err != nil {
		t.Fatal(err)
	}
	setID := findRoot(t, coord, "set")
	tree := clusterTrace(t, coord, addrs, setID)
	if tree == nil || tree.TraceID != setID {
		t.Fatalf("set trace = %+v, want tree for %016x", tree, setID)
	}
	if nodes := tree.Nodes(); len(nodes) < 3 { // coordinator + both replicas
		t.Fatalf("set trace touched nodes %v, want coordinator plus 2 backends", nodes)
	}
	if len(tree.Roots) != 1 || tree.Roots[0].Span.Op != "set" {
		t.Fatalf("set trace roots = %+v, want single 'set' op root", tree.Roots)
	}
	// Every backend server span must hang off one of the coordinator's
	// RPC spans — the wire propagation under test.
	spansByID := map[uint64]trace.Span{}
	var walk func(n *trace.Node)
	walk = func(n *trace.Node) {
		spansByID[n.Span.ID] = n.Span
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, r := range tree.Roots {
		walk(r)
	}
	serverSpans := 0
	for _, s := range spansByID {
		if s.Kind != trace.KindServer {
			continue
		}
		serverSpans++
		parent, ok := spansByID[s.Parent]
		if !ok || parent.Kind != trace.KindRPC {
			t.Fatalf("server span %+v not parented under an RPC span (parent %+v)", s, parent)
		}
	}
	if serverSpans < 2 {
		t.Fatalf("set trace has %d server spans, want one per replica (2)", serverSpans)
	}

	// Induce a read-repair: purge the primary's copy behind the
	// cluster's back, then do a traced quorum read.
	primary := c.replicaSet("grade")[0]
	lose(handlers[primary].Engine(), "grade")
	got, ok, err := c.Get("grade")
	if err != nil || !ok || string(got) != "A" {
		t.Fatalf("Get after damage = %q %v %v", got, ok, err)
	}
	getID := findRoot(t, coord, "get")
	if tree = clusterTrace(t, coord, addrs, getID); tree == nil {
		t.Fatalf("no tree for get trace %016x", getID)
	}
	if nodes := tree.Nodes(); len(nodes) < 3 {
		t.Fatalf("get trace touched nodes %v, want coordinator plus 2 backends", nodes)
	}
	repair, found := tree.Find(func(s trace.Span) bool { return s.Kind == trace.KindRepair })
	if !found {
		t.Fatal("get trace has no read-repair span despite the induced miss")
	}
	// The repaired backend's server-side MERGE must be a child of the
	// coordinator's repair span, proving the repair merge carried the
	// trace context over the wire too.
	spansByID = map[uint64]trace.Span{}
	for _, r := range tree.Roots {
		walk(r)
	}
	foundMerge := false
	for _, s := range spansByID {
		if s.Kind == trace.KindServer && s.Op == "MERGE" && s.Parent == repair.ID {
			foundMerge = true
		}
	}
	if !foundMerge {
		t.Fatalf("no server MERGE span parented under repair span %+v", repair)
	}

	// A zero slow threshold everywhere: nothing promoted.
	if slow := slowTraces(t, coord, addrs, 10); len(slow) != 0 {
		t.Fatalf("slow traces = %d trees with tail promotion disabled, want 0", len(slow))
	}
}

// TestClusterTraceBurst: a traced multi-key write keeps one RPC span
// per (key, replica) although each replica's share crossed the wire as
// one batch frame, and every entry's server span still hangs off its
// own RPC span — the trace context rides the entry, not the frame.
func TestClusterTraceBurst(t *testing.T) {
	startedAt := time.Now().UnixNano()
	_, _, addrs := startTracedBackends(t, 3)
	coord := trace.New(trace.Config{Node: "coordinator"})
	coord.SetEnabled(true)
	coord.SetSampleEvery(1)
	c, err := NewCluster(ClusterConfig{Addrs: addrs, Replication: 2, Timeout: 5 * time.Second, Tracer: coord})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys, values := batchKeys("traced", 5)
	if err := c.MSet(keys, values); err != nil {
		t.Fatal(err)
	}
	tree := clusterTrace(t, coord, addrs, findRoot(t, coord, "mset"))
	if tree == nil {
		t.Fatal("no tree for the mset trace")
	}
	rpcs := map[uint64]bool{}
	var servers []trace.Span
	var walk func(n *trace.Node)
	walk = func(n *trace.Node) {
		switch n.Span.Kind {
		case trace.KindRPC:
			if n.Span.Op != "SETV" || n.Span.Start < startedAt || n.Span.Err {
				t.Errorf("RPC span %+v, want a clean SETV", n.Span)
			}
			rpcs[n.Span.ID] = true
		case trace.KindServer:
			servers = append(servers, n.Span)
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, r := range tree.Roots {
		walk(r)
	}
	if want := len(keys) * 2; len(rpcs) != want || len(servers) != want {
		t.Fatalf("mset trace holds %d RPC and %d server spans, want %d of each", len(rpcs), len(servers), want)
	}
	for _, s := range servers {
		if !rpcs[s.Parent] {
			t.Errorf("server span %+v not parented under one of the burst's RPC spans", s)
		}
		delete(rpcs, s.Parent) // one server span per RPC span
	}
}

// TestClusterTraceMGet: a multi-key MGet's fall-through GETV and its
// read-repair hang under the mget root span like every first probe, and
// an MGet whose key no replica could answer finishes that root span as
// an error, so its assembled tree shows it failed.
func TestClusterTraceMGet(t *testing.T) {
	coord := trace.New(trace.Config{Node: "coordinator"})
	coord.SetEnabled(true)
	coord.SetSampleEvery(1)
	kvs, srvs, c := startWrappedKVCluster(t, 3, ClusterConfig{Replication: 2, Tracer: coord}, nil, nil)
	keys, values := batchKeys("traced", 5)
	if err := c.MSet(keys, values); err != nil {
		t.Fatal(err)
	}
	damaged := keys[2]
	set := c.replicaSet(damaged)
	lose(kvs[set[0]].Engine(), damaged)
	if got, err := c.MGet(keys); err != nil || len(got) != len(keys) {
		t.Fatalf("MGet after damage = %d keys, %v", len(got), err)
	}
	spans := coord.TraceSpans(findRoot(t, coord, "mget"))
	var root trace.Span
	for _, s := range spans {
		if s.Kind == trace.KindOp {
			root = s
		}
	}
	getvs, repairs := 0, 0
	for _, s := range spans {
		switch {
		case s.Kind == trace.KindRPC && s.Op == "GETV":
			getvs++
		case s.Kind == trace.KindRepair:
			repairs++
		default:
			continue
		}
		if s.Parent != root.ID {
			t.Errorf("%s span %+v not under the mget root %016x", s.Op, s, root.ID)
		}
	}
	if getvs != len(keys)+1 || repairs != 1 {
		t.Errorf("mget trace holds %d GETV and %d repair spans, want %d and 1", getvs, repairs, len(keys)+1)
	}
	if root.Err {
		t.Errorf("root span of a successful MGet reports an error: %+v", root)
	}

	for _, b := range set {
		srvs[b].Shutdown() // still in the ring: every replica of the key fails
	}
	if _, err := c.MGet([]string{damaged}); err == nil {
		t.Fatal("MGet of a key whose every replica is stopped reported no error")
	}
	for _, s := range coord.TraceSpans(findRoot(t, coord, "mget")) {
		if s.Kind == trace.KindOp && !s.Err {
			t.Errorf("root span of a failed MGet reports success: %+v", s)
		}
	}
}

// TestClusterSlowTraces pins the tail-promotion plane: with an
// aggressive slow threshold on the coordinator, ordinary ops pin their
// traces, and every node's pinned spans assemble into them, slowest
// first.
func TestClusterSlowTraces(t *testing.T) {
	_, _, addrs := startTracedBackends(t, 2)
	coord := trace.New(trace.Config{Node: "coordinator"})
	coord.SetEnabled(true)
	coord.SetSampleEvery(1)
	coord.SetSlowThreshold(time.Nanosecond) // everything is "slow"
	c, err := NewCluster(ClusterConfig{Addrs: addrs, Replication: 2, Tracer: coord})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 3; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	trees := slowTraces(t, coord, addrs, 2)
	if len(trees) != 2 {
		t.Fatalf("slow traces = %d trees, want capped at 2", len(trees))
	}
	for i := 1; i < len(trees); i++ {
		if trees[i].Duration() > trees[i-1].Duration() {
			t.Fatalf("slow traces not sorted slowest-first: %v then %v", trees[i-1].Duration(), trees[i].Duration())
		}
	}
	// Each pinned trace still assembles into a full cross-node tree.
	if nodes := trees[0].Nodes(); len(nodes) < 3 {
		t.Fatalf("slow trace touched nodes %v, want coordinator plus both replicas", nodes)
	}
}
