package main

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/member"
	"pdcedu/internal/store"
	"pdcedu/internal/trace"
)

// syncBuffer lets the node's logger and the test goroutine share a log
// sink without racing.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startNode boots one distnode on an ephemeral port and returns its
// bound address, its log sink, and a shutdown function that waits for
// a clean exit.
func startNode(t *testing.T, extra ...string) (addr string, logs *syncBuffer, shutdown func()) {
	t.Helper()
	logs = &syncBuffer{}
	stop := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-probe", "50ms"}, extra...)
	go func() { errc <- run(args, stop, ready, logs) }()
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("node exited before serving: %v (logs: %s)", err, logs.String())
	case <-time.After(5 * time.Second):
		t.Fatal("node never became ready")
	}
	return addr, logs, func() {
		stop <- os.Interrupt
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("run returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("node did not shut down within 5s")
		}
	}
}

// TestDistnodeSmoke boots two real nodes, joins the second to the
// first, serves one versioned op and one digest query through the
// shared data/gossip/anti-entropy port, then shuts both down cleanly.
func TestDistnodeSmoke(t *testing.T) {
	seedAddr, seedLogs, stopSeed := startNode(t)
	defer stopSeed()
	_, _, stopPeer := startNode(t, "-join", seedAddr, "-quiet")
	defer stopPeer()

	cl, err := csnet.Dial(seedAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// One versioned op round-trips through the node's engine.
	winner, applied, err := cl.SetV("smoke", []byte("ok"), 0)
	if err != nil || !applied || winner == 0 {
		t.Fatalf("SetV = %d %v %v", winner, applied, err)
	}
	e, ok, err := cl.GetV("smoke")
	if err != nil || !ok || string(e.Value) != "ok" || e.Version != winner {
		t.Fatalf("GetV = %+v %v %v, want ok@%d", e, ok, err, winner)
	}

	// The anti-entropy surface is live on the same port.
	buckets, nodes, err := cl.TreeV(nil)
	if err != nil || buckets == 0 || len(nodes) != 1 || nodes[0].Hash == 0 {
		t.Fatalf("TreeV = %d %v %v, want a nonzero root", buckets, nodes, err)
	}

	// The peer's join reached the seed: its periodic summary reports
	// two alive members.
	deadline := time.Now().Add(5 * time.Second)
	for {
		members := 0
		for _, line := range strings.Split(seedLogs.String(), "\n") {
			if n := strings.Count(line, "=alive@"); n > members {
				members = n
			}
		}
		if members >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed never saw the joined peer; logs:\n%s", seedLogs.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestDistnodeMetricsPlane boots a node with -metrics-addr and -slow-op,
// drives traffic through it, and checks every observability surface:
// the OpStats wire op, the /metrics text page (with per-op latency
// percentiles), /debug/vars, the slow-op log, and the exit snapshot.
func TestDistnodeMetricsPlane(t *testing.T) {
	addr, logs, shutdown := startNode(t, "-quiet", "-metrics-addr", "127.0.0.1:0", "-slow-op", "1ns")

	cl, err := csnet.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 10; i++ {
		if _, _, err := cl.SetV("metrics-key", []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.GetV("metrics-key"); err != nil {
			t.Fatal(err)
		}
	}

	// The OpStats wire op answers with a live merged-ready snapshot.
	snap, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if m, ok := snap.Get("csnet.server.ops.SETV"); !ok || m.Value < 10 {
		t.Fatalf("snapshot csnet.server.ops.SETV = %+v %v, want >= 10", m, ok)
	}
	if m, ok := snap.Get("store.entries"); !ok || m.Value != 1 {
		t.Fatalf("snapshot store.entries = %+v %v, want 1", m, ok)
	}
	// The runtime's memory accounting rides the same snapshot. The goal
	// is never below the live heap, and this process has a resident set.
	for _, name := range []string{"runtime.heap_live_bytes", "runtime.heap_goal_bytes", "runtime.heap_idle_bytes", "runtime.heap_objects", "runtime.gc_cycles", "runtime.rss_hw_bytes"} {
		if _, ok := snap.Get(name); !ok {
			t.Errorf("snapshot lacks %s", name)
		}
	}
	if objs, _ := snap.Get("runtime.heap_objects"); objs.Value <= 0 {
		t.Errorf("runtime.heap_objects = %d, want the heap's object count", objs.Value)
	}
	// No span has been written (-slow-op pins, it does not sample), so
	// the span ring has not been allocated.
	if m, ok := snap.Get("trace.ring_bytes"); !ok || m.Value != 0 {
		t.Errorf("snapshot trace.ring_bytes = %+v %v, want 0 before the first span", m, ok)
	}
	live, _ := snap.Get("runtime.heap_live_bytes")
	goal, _ := snap.Get("runtime.heap_goal_bytes")
	if goal.Value <= 0 || goal.Value < live.Value {
		t.Errorf("runtime.heap_goal_bytes = %d with %d live, want positive and no less", goal.Value, live.Value)
	}
	if hw, _ := snap.Get("runtime.rss_hw_bytes"); runtime.GOOS == "linux" && hw.Value < 1<<20 {
		t.Errorf("runtime.rss_hw_bytes = %d, want this process's peak resident set", hw.Value)
	}

	// The HTTP plane is discoverable from the log line and serves the
	// text page with latency percentiles, plus expvar.
	re := regexp.MustCompile(`metrics on http://([^/]+)/metrics`)
	m := re.FindStringSubmatch(logs.String())
	if m == nil {
		t.Fatalf("no metrics address in logs:\n%s", logs.String())
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + m[1] + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	page := get("/metrics")
	if !regexp.MustCompile(`(?m)^csnet\.server\.op_latency\.GETV count=\d+ p50=\d+ p99=\d+ p999=\d+ max=\d+`).MatchString(page) {
		t.Fatalf("/metrics missing GETV latency percentiles:\n%s", page)
	}
	if !strings.Contains(get("/debug/vars"), `"pdcedu"`) {
		t.Fatal("/debug/vars missing the pdcedu expvar map")
	}

	// -slow-op 1ns flags everything; the log names the op and bucket.
	if !regexp.MustCompile(`slow op (SETV|GETV|PING|STATS) bucket=\d+ took`).MatchString(logs.String()) {
		t.Fatalf("no slow-op line in logs:\n%s", logs.String())
	}

	shutdown()
	if !strings.Contains(logs.String(), "final metrics snapshot") {
		t.Fatalf("no exit snapshot in logs:\n%s", logs.String())
	}
}

// TestDistnodeTracePlane boots a node with tracing and a 1ns slow-op
// threshold, drives a traced request through it, and checks the trace
// surfaces: /healthz, /readyz, the tail-promoted waterfall on
// /debug/traces (list and ?id= lookup), and the trace ID on the
// slow-op log line.
func TestDistnodeTracePlane(t *testing.T) {
	addr, logs, shutdown := startNode(t, "-quiet", "-metrics-addr", "127.0.0.1:0", "-slow-op", "1ns")
	defer shutdown()

	re := regexp.MustCompile(`metrics on http://([^/]+)/metrics`)
	m := re.FindStringSubmatch(logs.String())
	if m == nil {
		t.Fatalf("no metrics address in logs:\n%s", logs.String())
	}
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + m[1] + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz = %d %q, want 200 ready", code, body)
	}

	// A traced request: the sampled context rides the versioned frame,
	// the server span it records outlives the ring via tail promotion
	// (everything beats 1ns).
	cl, err := csnet.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tc := trace.Context{TraceID: 0xFEEDFACE, SpanID: 0x1, Flags: trace.FlagSampled}
	resp, err := cl.Send(csnet.Request{Op: csnet.OpSetV, Key: "traced", Value: []byte("v"), Version: 1, Trace: tc}).ResponseV()
	if err != nil || resp.Status != csnet.StatusOK {
		t.Fatalf("traced SetV = %+v %v", resp, err)
	}
	// The server span carries the node's identity: the address it bound.
	spans, err := cl.Traces(csnet.TraceQueryID, 0xFEEDFACE)
	if err != nil {
		t.Fatal(err)
	}
	var server *trace.Span
	for i := range spans {
		if spans[i].Kind == trace.KindServer && spans[i].Op == "SETV" {
			server = &spans[i]
		}
	}
	if server == nil || server.Node != addr {
		t.Fatalf("server span of the traced SETV = %+v, want one with Node %q (spans %+v)", server, addr, spans)
	}

	// The slow-op line carries the trace ID for /debug/traces lookup.
	slowRE := regexp.MustCompile(`slow op SETV bucket=\d+ took \S+ \(threshold \S+\) trace=00000000feedface`)
	deadline := time.Now().Add(2 * time.Second)
	for !slowRE.MatchString(logs.String()) {
		if time.Now().After(deadline) {
			t.Fatalf("no traced slow-op line in logs:\n%s", logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The waterfall surfaces on the slow list and the by-ID lookup.
	if code, body := get("/debug/traces"); code != http.StatusOK ||
		!strings.Contains(body, "trace 00000000feedface") || !strings.Contains(body, "server SETV") {
		t.Fatalf("/debug/traces = %d:\n%s", code, body)
	}
	if code, body := get("/debug/traces?id=feedface"); code != http.StatusOK ||
		!strings.Contains(body, "server SETV") {
		t.Fatalf("/debug/traces?id= = %d:\n%s", code, body)
	}
	if code, _ := get("/debug/traces?id=zzz"); code != http.StatusBadRequest {
		t.Fatalf("/debug/traces?id=zzz = %d, want 400", code)
	}
	// An unknown trace is a clean empty page, not an error.
	if code, body := get("/debug/traces?id=1"); code != http.StatusOK || !strings.Contains(body, "no spans") {
		t.Fatalf("/debug/traces?id=1 = %d %q, want 'no spans'", code, body)
	}
}

// TestDistnodeGateway boots three storage nodes plus an embedded
// coordinator with the hot-key read cache and admission control
// enabled, drives the /kv/{key} HTTP gateway, and checks that repeat
// reads are answered from the cache (dist.cache.hits on /metrics) and
// that writes and deletes stay coherent through it.
func TestDistnodeGateway(t *testing.T) {
	a, _, stopA := startNode(t, "-quiet")
	defer stopA()
	b, _, stopB := startNode(t, "-quiet", "-join", a)
	defer stopB()
	c, _, stopC := startNode(t, "-quiet", "-join", a)
	defer stopC()
	_, logs, stopGW := startNode(t, "-quiet", "-join", a,
		"-metrics-addr", "127.0.0.1:0",
		"-cluster", a+","+b+","+c,
		"-cluster-rf", "3",
		"-read-cache", "1024",
		"-shed-queue", "64")
	defer stopGW()

	re := regexp.MustCompile(`metrics on http://([^/]+)/metrics`)
	m := re.FindStringSubmatch(logs.String())
	if m == nil {
		t.Fatalf("no metrics address in logs:\n%s", logs.String())
	}
	base := "http://" + m[1]
	do := func(method, key string, body []byte) (int, string) {
		req, err := http.NewRequest(method, base+"/kv/"+key, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s /kv/%s: %v", method, key, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, _ := do(http.MethodPut, "hot", []byte("v1")); code != http.StatusNoContent {
		t.Fatalf("PUT = %d, want 204", code)
	}
	for i := 0; i < 5; i++ {
		if code, body := do(http.MethodGet, "hot", nil); code != http.StatusOK || body != "v1" {
			t.Fatalf("GET #%d = %d %q, want 200 v1", i, code, body)
		}
	}
	// Overwrite through the gateway: the cached entry must not be served.
	if code, _ := do(http.MethodPut, "hot", []byte("v2")); code != http.StatusNoContent {
		t.Fatal("overwrite PUT failed")
	}
	if code, body := do(http.MethodGet, "hot", nil); code != http.StatusOK || body != "v2" {
		t.Fatalf("GET after overwrite = %d %q, want 200 v2", code, body)
	}
	if code, _ := do(http.MethodDelete, "hot", nil); code != http.StatusNoContent {
		t.Fatal("DELETE failed")
	}
	if code, _ := do(http.MethodGet, "hot", nil); code != http.StatusNotFound {
		t.Fatalf("GET after delete = %d, want 404", code)
	}
	if code, _ := do(http.MethodGet, "never-set", nil); code != http.StatusNotFound {
		t.Fatalf("GET missing = %d, want 404", code)
	}

	// The write-through cache answered the repeat reads: the metrics
	// page reports nonzero hits alongside the shed counter surface.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	hitRE := regexp.MustCompile(`(?m)^dist\.cache\.hits ([1-9]\d*)$`)
	if !hitRE.Match(page) {
		t.Fatalf("/metrics missing nonzero dist.cache.hits:\n%s", page)
	}
	if !regexp.MustCompile(`(?m)^csnet\.server\.shed \d+$`).Match(page) {
		t.Fatalf("/metrics missing csnet.server.shed:\n%s", page)
	}
}

// failSyncFile is the store's WALFile seam with an fsync that starts
// failing when told to.
type failSyncFile struct {
	*os.File
	fail *atomic.Bool
}

func (f failSyncFile) Sync() error {
	if f.fail.Load() {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

// TestReadyzFailsOnPoisonedWAL: a node whose log has failed acks no
// write, so it must stop advertising itself as ready — membership
// alone used to keep it in rotation.
func TestReadyzFailsOnPoisonedWAL(t *testing.T) {
	var fail atomic.Bool
	eng, err := store.OpenSharded(store.Options{Shards: 2}, store.WALOptions{
		Dir:   t.TempDir(),
		Fsync: store.FsyncAlways,
		OpenFile: func(path string) (store.WALFile, error) {
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			return failSyncFile{f, &fail}, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ml, err := member.New(member.Config{ID: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	mux := metricsMux(trace.New(trace.Config{}), ml, eng, nil)
	readyz := func() (int, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code, rec.Body.String()
	}

	eng.Set("healthy", []byte("v"))
	if code, body := readyz(); code != http.StatusOK {
		t.Fatalf("/readyz on a healthy log = %d %q, want 200", code, body)
	}
	fail.Store(true)
	eng.Set("lost", []byte("v"))
	if eng.Err() == nil {
		t.Fatal("failed fsync did not poison the engine")
	}
	if code, body := readyz(); code != http.StatusServiceUnavailable || !strings.Contains(body, "injected fsync failure") {
		t.Fatalf("/readyz on a poisoned log = %d %q, want 503 naming the failure", code, body)
	}
}
