// Root benchmarks: one testing.B per table and figure of the paper,
// regenerating each artifact end to end (E1-E6), and the two sets that
// scripts/allocgate.sh reads allocs/op from — the six coordinator
// paths, and the E29/E30 pairs that hold instrumentation and tracing to
// zero added allocations on a server round trip. Timings belong to
// bench/ (bash bench/run.sh): every other layer is a rung of its
// ladder, measured with its spread.
package pdcedu

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/dist"
	"pdcedu/internal/obs"
	"pdcedu/internal/trace"
)

// BenchmarkTableI regenerates Table I (E1).
func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := RenderTableI()
		if !strings.Contains(out, "Flynn") {
			b.Fatal("Table I incomplete")
		}
	}
}

// BenchmarkFig2 regenerates the Fig. 2 weighted topic sums (E2).
func BenchmarkFig2(b *testing.B) {
	sv := BuildSurvey()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := RenderFig2(sv)
		if !strings.Contains(out, "Fig. 2") {
			b.Fatal("Fig. 2 incomplete")
		}
	}
}

// BenchmarkFig3 regenerates the Fig. 3 course shares (E3).
func BenchmarkFig3(b *testing.B) {
	sv := BuildSurvey()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := RenderFig3(sv)
		if !strings.Contains(out, "25.0%") {
			b.Fatal("Fig. 3 numbers drifted from the paper")
		}
	}
}

// BenchmarkTableII regenerates Table II (E4).
func BenchmarkTableII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := RenderTableII()
		if !strings.Contains(out, "Multi/Many-core") {
			b.Fatal("Table II incomplete")
		}
	}
}

// BenchmarkTableIII regenerates Table III (E5).
func BenchmarkTableIII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := RenderTableIII()
		if !strings.Contains(out, "Concurrency primitives") {
			b.Fatal("Table III incomplete")
		}
	}
}

// BenchmarkSurveyAudit runs the full 20-program accreditation audit (E6).
func BenchmarkSurveyAudit(b *testing.B) {
	sv := BuildSurvey()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range sv.Programs {
			r, err := CheckProgram(p)
			if err != nil || !r.Pass {
				b.Fatalf("audit failed: %v %v", r.Pass, err)
			}
		}
	}
}

// benchCluster starts loopback KV backends and a replicated cluster
// for the six coordinator benchmarks (E18, E20-E22, Get, GetCached)
// whose allocs/op scripts/allocgate.sh holds to a ceiling; readCache is
// ClusterConfig.ReadCache.
func benchCluster(b *testing.B, readCache int) *dist.Cluster {
	b.Helper()
	const backends = 3
	addrs := make([]string, backends)
	for i := range addrs {
		srv := csnet.NewServer(csnet.NewKVHandler(), 64)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(srv.Shutdown)
		addrs[i] = addr
	}
	c, err := dist.NewCluster(dist.ClusterConfig{Addrs: addrs, Replication: 2, Timeout: 5 * time.Second, ReadCache: readCache})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkClusterSetGet measures a replicated Set plus a Get through
// the sharded cluster over real loopback TCP, one request at a time
// from one goroutine (E18).
func BenchmarkClusterSetGet(b *testing.B) {
	c := benchCluster(b, 0)
	val := []byte("benchmark-value")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("bench-%d", i&4095)
		if err := c.Set(key, val); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := c.Get(key); err != nil || !ok {
			b.Fatalf("get %s: %v %v", key, ok, err)
		}
	}
}

// BenchmarkClusterGet measures a Get alone over a preloaded key set:
// the one-key case of fetch, the read path MGet shares, gated on its
// own so a stray allocation there is not hidden in SetGet's write.
func BenchmarkClusterGet(b *testing.B) {
	c := benchCluster(b, 0)
	keys, values := benchBatchKeys()
	if err := c.MSet(keys, values); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := c.Get(keys[i%len(keys)]); err != nil || !ok {
			b.Fatalf("get %s: %v %v", keys[i%len(keys)], ok, err)
		}
	}
}

// BenchmarkClusterGetCached is ClusterGet with the read cache on: the
// preload's write-through installs every key, so each Get is a hit,
// and a hit hands out a copy of the cache's value, as a miss hands out
// its reply's.
func BenchmarkClusterGetCached(b *testing.B) {
	c := benchCluster(b, 1024)
	keys, values := benchBatchKeys()
	if err := c.MSet(keys, values); err != nil {
		b.Fatal(err)
	}
	hits := obs.Default().Counter("dist.cache.hits")
	before := hits.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := c.Get(keys[i%len(keys)]); err != nil || !ok {
			b.Fatalf("get %s: %v %v", keys[i%len(keys)], ok, err)
		}
	}
	b.StopTimer()
	if n := hits.Value() - before; n != uint64(b.N) {
		b.Fatalf("%d cache hits in %d Gets", n, b.N)
	}
}

// BenchmarkClusterPipelined measures the same Set+Get pair issued by
// many concurrent goroutines sharing one multiplexed connection per
// backend (E20): throughput comes from N requests in flight, not N
// connections in lock-step.
func BenchmarkClusterPipelined(b *testing.B) {
	c := benchCluster(b, 0)
	val := []byte("benchmark-value")
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			key := fmt.Sprintf("bench-%d", ctr.Add(1)&4095)
			if err := c.Set(key, val); err != nil {
				b.Fatal(err)
			}
			if _, ok, err := c.Get(key); err != nil || !ok {
				b.Fatalf("get %s: %v %v", key, ok, err)
			}
		}
	})
}

// benchBatchKeys builds the 100-key working set for E21/E22 and Get.
func benchBatchKeys() (keys []string, values [][]byte) {
	for i := 0; i < 100; i++ {
		keys = append(keys, fmt.Sprintf("batch-%d", i))
		values = append(values, []byte("benchmark-value"))
	}
	return keys, values
}

// BenchmarkClusterMSet100 writes 100 replicated keys as one batched
// MSet — a single pipelined burst per backend (E21).
func BenchmarkClusterMSet100(b *testing.B) {
	c := benchCluster(b, 0)
	keys, values := benchBatchKeys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.MSet(keys, values); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterMGet100 reads 100 keys as one batched MGet (E22).
func BenchmarkClusterMGet100(b *testing.B) {
	c := benchCluster(b, 0)
	keys, values := benchBatchKeys()
	if err := c.MSet(keys, values); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := c.MGet(keys)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(keys) {
			b.Fatalf("MGet found %d keys, want %d", len(got), len(keys))
		}
	}
}

// benchServerOp measures one server round trip (a SetV through a real
// loopback server and muxed client) with metric recording either
// enabled or disabled — the E29 pair. The contract scripts/allocgate.sh
// checks is that the instrumented op allocates no more than the
// baseline: instrumentation must be invisible on the hottest path in
// the system.
func benchServerOp(b *testing.B, instrumented bool) {
	b.Helper()
	obs.SetEnabled(instrumented)
	b.Cleanup(func() { obs.SetEnabled(true) })
	srv := csnet.NewServer(csnet.NewKVHandler(), 64)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Shutdown)
	cl, err := csnet.Dial(addr, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	val := []byte("benchmark-value")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.SetV(fmt.Sprintf("bench-%d", i&4095), val, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// E29: the instrumented server op vs the disabled-metrics baseline.
func BenchmarkServerOpInstrumented(b *testing.B) { benchServerOp(b, true) }
func BenchmarkServerOpBaseline(b *testing.B)     { benchServerOp(b, false) }

// benchTracedServerOp measures one versioned server round trip (a SetV
// through a real loopback server and muxed client) with a trace
// recorder either wired into the handler and enabled, or absent — the
// E30 pair. The requests carry no trace context (the unsampled common
// case), so scripts/allocgate.sh holds the enabled side to the
// baseline's allocs/op: tracing is paid only by sampled requests.
func benchTracedServerOp(b *testing.B, traced bool) {
	b.Helper()
	h := csnet.NewKVHandler()
	if traced {
		rec := trace.New(trace.Config{Node: "bench"})
		rec.SetEnabled(true)
		rec.SetSampleEvery(1 << 30) // enabled, but this bench's ops stay unsampled
		h = h.WithTracer(rec)
	}
	srv := csnet.NewServer(h, 64)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Shutdown)
	cl, err := csnet.Dial(addr, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	val := []byte("benchmark-value")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.SetV(fmt.Sprintf("bench-%d", i&4095), val, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// E30: the tracing-enabled versioned server op vs the untraced
// baseline.
func BenchmarkTracedServerOpEnabled(b *testing.B)  { benchTracedServerOp(b, true) }
func BenchmarkTracedServerOpBaseline(b *testing.B) { benchTracedServerOp(b, false) }
