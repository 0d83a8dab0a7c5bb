package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"pdcedu/internal/trace"
)

func TestOpStreamSameSeedSameOps(t *testing.T) {
	type op struct {
		get bool
		key int
	}
	take := func(seed int64, id int, zipf bool) []op {
		s := newOpStream(seed, id, 0.5, zipf)
		out := make([]op, 5000)
		for i := range out {
			out[i].get, out[i].key = s.next()
		}
		return out
	}
	for _, zipf := range []bool{false, true} {
		a, b := take(42, 3, zipf), take(42, 3, zipf)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("zipf=%v: op %d differs between two streams of one seed: %v vs %v", zipf, i, a[i], b[i])
			}
		}
		other := take(43, 3, zipf)
		same := 0
		for i := range a {
			if a[i] == other[i] {
				same++
			}
		}
		if same > len(a)/2 {
			t.Errorf("zipf=%v: seeds 42 and 43 share %d of %d ops", zipf, same, len(a))
		}
		for i, o := range a {
			if o.key < 0 || o.key >= numKeys {
				t.Fatalf("zipf=%v: op %d key %d outside the keyspace", zipf, i, o.key)
			}
			if !o.get && o.key%workers != 3 {
				t.Fatalf("zipf=%v: worker 3 Set key %d, which belongs to worker %d", zipf, o.key, o.key%workers)
			}
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := makeValue("k00012345", 678)
	if len(v) != valueSize {
		t.Fatalf("value is %d bytes, want %d", len(v), valueSize)
	}
	key, seq, ok := parseValue(v)
	if !ok || key != "k00012345" || seq != 678 {
		t.Fatalf("parseValue = %q %d %v", key, seq, ok)
	}
	for _, bad := range [][]byte{nil, []byte("short"), make([]byte, valueSize)} {
		if _, _, ok := parseValue(bad); ok {
			t.Errorf("parseValue accepted %q", bad)
		}
	}
}

func TestWindowMedianAndQuartiles(t *testing.T) {
	// Five window rates: sorted 10 20 30 40 100.
	v := median([]float64{30, 10, 100, 20, 40})
	if v.V != 30 || v.Q1 != 20 || v.Q3 != 40 || v.N != 5 {
		t.Errorf("median of 5 = %+v, want 30 [20, 40] n=5", v)
	}
	// Four values 1 2 3 4: median 2.5, quartiles at positions 0.75 and 2.25.
	s := summarize([]float64{4, 1, 3, 2})
	if s.Median != 2.5 || s.Q1 != 1.75 || s.Q3 != 3.25 {
		t.Errorf("summary of 1..4 = %+v, want 2.5 [1.75, 3.25]", s)
	}
	if got := s.spread(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("spread = %v, want (3.25-1.75)/2.5 = 0.6", got)
	}
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("summary of nothing = %+v", got)
	}
	// cv of 2 4 4 4 5 5 7 9: mean 5, population sd 2.
	if got := cv([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("cv = %v, want 0.4", got)
	}
}

func TestRawSamplePercentiles(t *testing.T) {
	s := make([]uint32, 100) // 1..100
	for i := range s {
		s[i] = uint32(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := nsQuantile(s, c.q); got != c.want {
			t.Errorf("q%.3f of 1..100 = %v, want %v", c.q, got, c.want)
		}
	}
	if got := nsQuantile([]uint32{7, 9, 11}, 0.5); got != 9 {
		t.Errorf("median of 7 9 11 = %v", got)
	}
	if got := nsQuantile(nil, 0.5); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
}

func TestProcParsers(t *testing.T) {
	// comm holds a space and a ')': fields must be counted from the last ')'.
	stat := "4242 (dist node) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 75 0 0 20 0 9 0 12345 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	user, sys, err := parseProcStat(stat)
	if err != nil || user != 2500*time.Millisecond || sys != 750*time.Millisecond {
		t.Errorf("parseProcStat = %v %v %v, want 2.5s 750ms", user, sys, err)
	}
	if _, _, err := parseProcStat("garbage"); err == nil {
		t.Error("parseProcStat accepted garbage")
	}
	if _, _, err := parseProcStat("1 (x) S 1 2"); err == nil {
		t.Error("parseProcStat accepted a truncated line")
	}

	io := "rchar: 100\nwchar: 200\nsyscr: 3\nsyscw: 4\nread_bytes: 4096\nwrite_bytes: 123456789\ncancelled_write_bytes: 0\n"
	if wb, err := parseWriteBytes(io); err != nil || wb != 123456789 {
		t.Errorf("parseWriteBytes = %v %v", wb, err)
	}
	if _, err := parseWriteBytes("rchar: 1\n"); err == nil {
		t.Error("parseWriteBytes accepted text with no write_bytes line")
	}

	status := "Name:\tdistnode\nVmPeak:\t  900000 kB\nVmHWM:\t  150000 kB\nVmRSS:\t  140000 kB\n"
	if hwm, err := parseVmHWM(status); err != nil || hwm != 150000<<10 {
		t.Errorf("parseVmHWM = %v %v", hwm, err)
	}

	vars := []byte(`{"cmdline":["distnode"],"memstats":{"Alloc":1,"Mallocs":987654321,"Frees":5},"pdcedu":{}}`)
	if n, err := parseMallocs(vars); err != nil || n != 987654321 {
		t.Errorf("parseMallocs = %v %v", n, err)
	}
	if _, err := parseMallocs([]byte(`{"cmdline":[]}`)); err == nil {
		t.Error("parseMallocs accepted a document with no memstats")
	}

	page := "csnet.server.queue_depth.hw 33\ncsnet.server.op_latency.SETV count=10 p50=3583 p99=12287 p999=24575 max=31744 mean=4113\nstore.entries 200000\n"
	g := parseMetricsPage(page)
	if g["csnet.server.queue_depth.hw"] != 33 || g["store.entries"] != 200000 || len(g) != 2 {
		t.Errorf("parseMetricsPage = %v", g)
	}
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name     string
		children [][2]int64
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", [][2]int64{{10, 40}}, 70},
		{"parallel fan-out counts once", [][2]int64{{10, 60}, {20, 50}, {30, 70}}, 40},
		{"disjoint children", [][2]int64{{60, 80}, {10, 20}}, 70},
		{"clipped to the parent", [][2]int64{{-50, 10}, {90, 500}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpanTreeArithmetic(t *testing.T) {
	// op 0..100 with two parallel RPCs; each RPC's server span reports
	// its own queue wait; the server's engine span is its only child.
	spans := []trace.Span{
		{TraceID: 1, ID: 10, Start: 0, Dur: 100_000, Kind: trace.KindOp, Op: "set", Node: "bench"},
		{TraceID: 1, ID: 11, Parent: 10, Start: 5_000, Dur: 80_000, Kind: trace.KindRPC},
		{TraceID: 1, ID: 12, Parent: 10, Start: 6_000, Dur: 84_000, Kind: trace.KindRPC},
		{TraceID: 1, ID: 13, Parent: 11, Start: 30_000, Dur: 20_000, Wait: 10_000, Kind: trace.KindServer},
		{TraceID: 1, ID: 14, Parent: 13, Start: 35_000, Dur: 5_000, Kind: trace.KindEngine},
	}
	var lt layerTimes
	for _, tr := range trace.Assemble(spans) {
		for _, root := range tr.Roots {
			lt.walk(root)
		}
	}
	check := func(name string, got []float64, want ...float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s = %v, want %v", name, got, want)
			}
		}
	}
	check("op self", lt.opSelf, 15)       // 100 - union(5..85, 6..90)
	check("rpc wire", lt.rpcWire, 50)     // 80 - 20 handling - 10 queued
	check("queue wait", lt.queueWait, 10) //
	check("server self", lt.serverSelf, 15)
	check("engine", lt.engine, 5)
}

func TestLinkSpans(t *testing.T) {
	gen := []span{
		{ID: 1, Name: "get", Start: 100, End: 200},
		{ID: 2, Name: "set", Start: 150, End: 400},
		{ID: 3, Name: "get", Start: 210, End: 300},
	}
	ops := []*trace.Node{
		{Span: trace.Span{TraceID: 77, ID: 9, Start: 215, Dur: 80, Op: "get"}},
		{Span: trace.Span{TraceID: 78, ID: 8, Start: 160, Dur: 230, Op: "set"}},
		{Span: trace.Span{TraceID: 79, ID: 7, Start: 500, Dur: 10, Op: "get"}}, // no call contains it
	}
	if n := linkSpans(gen, ops); n != 2 {
		t.Fatalf("linked %d ops, want 2", n)
	}
	if gen[2].TraceID != 77 || ops[0].Span.Parent != 3 {
		t.Errorf("get op linked to %+v (parent %d), want generator span 3", gen[2], ops[0].Span.Parent)
	}
	if gen[1].TraceID != 78 || ops[1].Span.Parent != 2 {
		t.Errorf("set op linked to %+v (parent %d), want generator span 2", gen[1], ops[1].Span.Parent)
	}
	if gen[0].TraceID != 0 || ops[2].Span.Parent != 0 {
		t.Error("an op outside every call was linked")
	}
}

// TestMetricNames is the metric-name lint: legal names and units,
// within the contract's counts, and the code and BENCHMARK.json naming
// exactly the same workloads and metrics with the same units.
func TestMetricNames(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	b, err := os.ReadFile("../" + benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer()); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	lint := func(s metricSpec) {
		if !nameRE.MatchString(s.Name) {
			t.Errorf("metric name %q is not letters, digits, _ . - (at most 64)", s.Name)
		}
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("metric %s: unit %q is not legal", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("metric %s: better = %q", s.Name, s.Better)
		}
		if seen[s.Name] {
			t.Errorf("metric %s is named twice", s.Name)
		}
		seen[s.Name] = true
	}
	inFile := map[string]metricSpec{}
	for _, e := range f.EndToEnd {
		inFile[e.Name] = metricSpec{e.Name, e.Unit, e.Better}
		if e.Bound <= 0 || e.Bound > maxBound {
			t.Errorf("%s: bound %v outside (0, %v]", e.Name, e.Bound, maxBound)
		}
	}
	for _, e := range f.PerLayer {
		inFile[e.Name] = metricSpec(e)
	}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer()...) {
		lint(s)
		if got, ok := inFile[s.Name]; !ok {
			t.Errorf("metric %s is in the code but not in %s", s.Name, benchmarkPath)
		} else if got != s {
			t.Errorf("metric %s: code says %+v, %s says %+v", s.Name, s, benchmarkPath, got)
		}
		delete(inFile, s.Name)
	}
	for name := range inFile {
		t.Errorf("metric %s is in %s but not in the code", name, benchmarkPath)
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer()) {
		t.Errorf("%s lists %d+%d metrics, the code %d+%d", benchmarkPath, len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer()))
	}
	if len(f.Workloads) != len(shipped()) {
		t.Fatalf("%s lists %d workloads, the code ships %d", benchmarkPath, len(f.Workloads), len(shipped()))
	}
	for i, w := range f.Workloads {
		if w.Name != shipped()[i].name {
			t.Errorf("workload %d: %s says %q, the code %q", i, benchmarkPath, w.Name, shipped()[i].name)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
}
