// distnode runs one self-healing distributed KV node: a csnet server
// carrying the key-value data plane and the SWIM gossip control plane
// (internal/member) on a single port. Start several, point them at a
// seed, and the membership converges by gossip; kill one and the rest
// declare it dead within the suspicion timeout; restart it and it
// refutes the death and rejoins.
//
//	distnode -addr 127.0.0.1:7001
//	distnode -addr 127.0.0.1:7002 -join 127.0.0.1:7001
//	distnode -addr 127.0.0.1:7003 -join 127.0.0.1:7001
//
// The -addr value is both the listen address and the node's member
// identity, so it must be a concrete host:port that peers can dial.
//
// The node serves the Merkle anti-entropy ops (OpTreeV/OpRangeV) that
// a dist.Cluster coordinator's Rebalance drives; -merkle-buckets must
// match the coordinator's ClusterConfig.Buckets (both default to
// store.DefaultMerkleBuckets). The periodic summary reports the tree's
// root hash and how many leaf rebuilds write traffic has forced —
// replicas whose summaries show the same root are provably converged.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/dist"
	"pdcedu/internal/member"
	"pdcedu/internal/obs"
	"pdcedu/internal/store"
	"pdcedu/internal/trace"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], stop, nil, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run is the node's whole lifecycle, factored out of main so a test
// can boot a real node: parse flags, start the engine + sweeper +
// server + membership, loop until stop, shut down cleanly. When ready
// is non-nil it receives the bound address once the node is serving
// (essential with -addr 127.0.0.1:0, where the port is ephemeral).
func run(args []string, stop <-chan os.Signal, ready chan<- string, logw io.Writer) error {
	fs := flag.NewFlagSet("distnode", flag.ContinueOnError)
	fs.SetOutput(logw)
	addr := fs.String("addr", "127.0.0.1:7001", "listen address and member identity (host:port)")
	join := fs.String("join", "", "comma-separated seed addresses to join")
	probe := fs.Duration("probe", 500*time.Millisecond, "failure-detector probe interval")
	suspicion := fs.Duration("suspicion", 0, "suspicion timeout before a suspect is declared dead (default 5x probe)")
	quiet := fs.Bool("quiet", false, "log only membership transitions, not the periodic summary")
	shards := fs.Int("shards", store.DefaultShards, "storage-engine shard count (rounded up to a power of two)")
	merkleBuckets := fs.Int("merkle-buckets", store.DefaultMerkleBuckets,
		"Merkle anti-entropy bucket count (rounded up to a power of two; must match the cluster coordinator's)")
	tombGC := fs.Duration("tombstone-gc", store.DefaultTombstoneGC, "how long delete tombstones are retained before garbage collection")
	sweep := fs.Duration("sweep", 5*time.Second, "background sweep interval for tombstone GC")
	dataDir := fs.String("data-dir", "", "durability: directory for the node's write-ahead log (segments wal.<G>) and the WALMETA manifest; on restart the node replays it and catches up via Merkle anti-entropy (empty = in-memory only)")
	fsyncPolicy := fs.String("fsync", "interval", "WAL fsync policy: always (every write waits for a group commit shared by all shards), interval (one background fsync per -fsync-interval), or never (requires -data-dir)")
	fsyncEvery := fs.Duration("fsync-interval", 100*time.Millisecond, "flush cadence for -fsync interval")
	snapshotEvery := fs.Int64("snapshot-every", 8<<20, "floor, in log bytes per shard, under the cleaning trigger: while the log on disk holds at least max(this × -shards, twice the live image), the oldest segment's live records are re-appended and the segment deleted; the open segment rotates every quarter of this × -shards (requires -data-dir)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /healthz, /readyz, /debug/traces, /debug/vars, and /debug/pprof on this address (empty = off)")
	shedQueue := fs.Int("shed-queue", 0, "admission control: per-connection worker queue depth; frames past it are shed with BUSY (0 = queue bounded only by worker count, no shedding)")
	shedInflight := fs.Int("shed-inflight", 0, "admission control: server-wide in-flight request budget; frames past it are shed with BUSY (0 = unlimited)")
	clusterAddrs := fs.String("cluster", "", "comma-separated backend addresses: run an embedded cluster coordinator serving HTTP /kv/{key} on -metrics-addr and wired to this node's membership (empty = off)")
	clusterRF := fs.Int("cluster-rf", 3, "replication factor of the embedded coordinator (requires -cluster)")
	readCache := fs.Int("read-cache", 0, "embedded coordinator's hot-key read-cache size in entries (0 = off; requires -cluster)")
	slowOp := fs.Duration("slow-op", 0, "log server-side ops slower than this threshold and tail-promote their traces (0 = off)")
	traceSample := fs.Int("trace-sample", 0, "head-sample 1 in N locally originated traces (0 = off; wire-propagated traces are always honored)")
	traceRing := fs.Int("trace-ring", trace.DefaultCapacity, "span ring capacity (rounded up to a power of two; allocated on the first span)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(logw, "", log.LstdFlags)

	sopts := store.Options{Shards: *shards, MerkleBuckets: *merkleBuckets, TombstoneGC: *tombGC}
	var eng *store.Sharded
	if *dataDir != "" {
		policy, perr := store.ParseFsyncPolicy(*fsyncPolicy)
		if perr != nil {
			return perr
		}
		var oerr error
		eng, oerr = store.OpenSharded(sopts, store.WALOptions{
			Dir:           *dataDir,
			Fsync:         policy,
			Interval:      *fsyncEvery,
			SnapshotBytes: *snapshotEvery,
		})
		if oerr != nil {
			return fmt.Errorf("distnode: open %s: %w", *dataDir, oerr)
		}
		rs := eng.Recovery()
		logBytes, cleanAt := eng.Backlog()
		logger.Printf("distnode: recovered %d WAL records (%d segments, %d torn bytes dropped) from %s in %s; fsync=%s; %d log bytes on disk, cleaning at %d",
			rs.WALRecords, rs.Segments, rs.TornBytes, *dataDir, rs.Elapsed.Round(time.Microsecond), policy, logBytes, cleanAt)
		// The two sides of the cleaning trigger: the log a restart would
		// replay, and the size at which its oldest segment is cleaned.
		obs.Default().Func("store.wal.log_bytes", func() int64 { logBytes, _ := eng.Backlog(); return logBytes })
		obs.Default().Func("store.wal.checkpoint_at", func() int64 { _, at := eng.Backlog(); return at })
	} else {
		eng = store.NewSharded(sopts)
	}
	// Deferred before the sweeper starts so it runs after the sweeper
	// stops: a close mid-sweep would poison the sweep's purge records.
	defer func() {
		if cerr := eng.Close(); cerr != nil {
			logger.Printf("distnode: close engine: %v", cerr)
		}
	}()
	sweeper := store.StartSweeper(eng, *sweep, 4096)
	defer sweeper.Stop()
	// Live store levels as func gauges: read at snapshot time, so the
	// stats plane reports the engine's truth rather than a shadow
	// counter. Func re-registration is last-wins by design — a test
	// booting several nodes in one process points the gauges at the
	// newest node's engine, which is the one it is probing.
	obs.Default().Func("store.entries", func() int64 {
		live, _ := eng.Counts()
		return int64(live)
	})
	obs.Default().Func("store.tombstones", func() int64 {
		_, tombs := eng.Counts()
		return int64(tombs)
	})
	registerRuntimeGauges(obs.Default())
	// The member identity must be the address peers actually dial, so
	// the node listens first (resolving an ephemeral ":0" port) and
	// builds everything that carries its identity — the span recorder,
	// the memberlist, the server around both planes — from the bound
	// address.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("distnode: listen %s: %w", *addr, err)
	}
	bound := ln.Addr().String()
	// A per-node recorder (not the process-global default) so tests that
	// boot several nodes in one process keep distinct span rings and node
	// identities.
	rec := trace.New(trace.Config{Node: bound, Capacity: *traceRing})
	rec.SetSlowThreshold(*slowOp)
	if *traceSample > 0 {
		rec.SetSampleEvery(*traceSample)
		rec.SetEnabled(true)
	}
	obs.Default().Func("trace.spans_recorded", func() int64 { return int64(rec.Stats().Recorded) })
	obs.Default().Func("trace.spans_dropped", func() int64 { return int64(rec.Stats().Dropped) })
	obs.Default().Func("trace.traces_promoted", func() int64 { return int64(rec.Stats().Promoted) })
	obs.Default().Func("trace.ring_bytes", func() int64 { return rec.Stats().RingBytes })
	kv := csnet.NewKVHandlerOn(eng).WithTracer(rec)
	ml, err := member.New(member.Config{
		ID:               bound,
		ProbeInterval:    *probe,
		SuspicionTimeout: *suspicion,
		Logf:             logger.Printf,
	})
	if err != nil {
		ln.Close()
		return err
	}
	srv := csnet.NewServer(ml.Handler(kv), 256)
	srv.SetAdmission(*shedQueue, *shedInflight)
	if err := srv.Serve(ln); err != nil {
		return err
	}
	defer srv.Shutdown()
	// The embedded coordinator: the same dist.Cluster a standalone
	// gateway would run, co-located with a node and subscribed to its
	// membership, so dead backends leave its ring by gossip. Its /kv
	// HTTP surface (on the metrics plane) is for curl and demos; distload
	// and bench each run their own coordinator over csnet. Its dist.*
	// metrics — the read-cache hit/miss/invalidation counters included —
	// land in this node's registry and therefore on /metrics and in
	// every OpStats/ClusterStats merge.
	var gw *dist.Cluster
	if *clusterAddrs != "" {
		var backends []string
		for _, s := range strings.Split(*clusterAddrs, ",") {
			if s = strings.TrimSpace(s); s != "" {
				backends = append(backends, s)
			}
		}
		gw, err = dist.NewCluster(dist.ClusterConfig{
			Addrs:       backends,
			Replication: *clusterRF,
			Buckets:     *merkleBuckets,
			ReadCache:   *readCache,
			Tracer:      rec,
		})
		if err != nil {
			return err
		}
		defer gw.Close()
		defer gw.Watch(ml)()
	}
	if *slowOp > 0 {
		csnet.SetSlowOp(*slowOp, eng.Buckets(), func(op csnet.Op, bucket int, d time.Duration, traceID uint64) {
			if traceID != 0 {
				// The trace ID makes the log line actionable: paste it into
				// /debug/traces?id= for the whole request's waterfall.
				logger.Printf("distnode %s: slow op %s bucket=%d took %s (threshold %s) trace=%016x",
					bound, op, bucket, d, *slowOp, traceID)
				return
			}
			logger.Printf("distnode %s: slow op %s bucket=%d took %s (threshold %s)",
				bound, op, bucket, d, *slowOp)
		})
		defer csnet.SetSlowOp(0, 0, nil)
	}
	var metricsSrv *http.Server
	if *metricsAddr != "" {
		mln, merr := net.Listen("tcp", *metricsAddr)
		if merr != nil {
			return fmt.Errorf("distnode: metrics listen %s: %w", *metricsAddr, merr)
		}
		metricsSrv = &http.Server{Handler: metricsMux(rec, ml, eng, gw)}
		go func() { _ = metricsSrv.Serve(mln) }()
		defer metricsSrv.Close()
		logger.Printf("distnode %s: metrics on http://%s/metrics (also /healthz, /readyz, /debug/traces, /debug/vars, /debug/pprof)",
			bound, mln.Addr())
	}
	logger.Printf("distnode %s: serving KV + gossip + anti-entropy (%d merkle buckets)",
		bound, eng.Buckets())
	if ready != nil {
		ready <- bound
	}

	var seeds []string
	for _, s := range strings.Split(*join, ",") {
		if s = strings.TrimSpace(s); s != "" {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) > 0 {
		if err := ml.Join(seeds...); err != nil {
			// A dead seed is not fatal: keep probing, the cluster may
			// find us through another member's gossip.
			logger.Printf("distnode %s: join: %v", bound, err)
		}
	}
	ml.Start()

	tick := time.NewTicker(5 * *probe)
	defer tick.Stop()
	reg := obs.Default()
	leafRebuilds := reg.Counter("store.merkle.leaf_rebuilds")
	purged := reg.Counter("store.sweep.purged")
	for {
		select {
		case <-stop:
			logger.Printf("distnode %s: shutting down", bound)
			if err := ml.Stop(); err != nil {
				logger.Printf("distnode %s: stop membership: %v", bound, err)
			}
			srv.Shutdown()
			// The exit summary is the node's last words: the full metrics
			// snapshot, so a run that ends before anyone scraped /metrics
			// still leaves its numbers in the log.
			logger.Printf("distnode %s: final metrics snapshot:\n%s", bound, obs.Default().Snapshot())
			return nil
		case <-tick.C:
			if *quiet {
				continue
			}
			var b strings.Builder
			fmt.Fprintf(&b, "store: %d keys (%d tombstones GC'd); merkle root %016x (%d leaf rebuilds); members (%d alive):",
				kv.Len(), purged.Value(), eng.Digest().Root(), leafRebuilds.Value(), ml.NumAlive())
			for _, m := range ml.Members() {
				fmt.Fprintf(&b, " %s=%s@%d", m.ID, m.State, m.Incarnation)
			}
			logger.Print(b.String())
		}
	}
}

// publishExpvar exposes the obs registry through the standard
// /debug/vars JSON as one "pdcedu" map (alongside the runtime's
// memstats and cmdline). expvar.Publish panics on duplicates, so tests
// that boot several nodes in one process share a single publication of
// the process-global registry — which is what the registry is anyway.
var publishExpvar = sync.OnceFunc(func() {
	expvar.Publish("pdcedu", expvar.Func(func() any {
		snap := obs.Default().Snapshot()
		vars := make(map[string]any, len(snap.Metrics))
		for _, m := range snap.Metrics {
			if m.Kind == obs.KindHistogram && m.Hist != nil {
				vars[m.Name] = map[string]uint64{
					"count": m.Hist.Count,
					"p50":   m.Hist.Quantile(0.50),
					"p99":   m.Hist.Quantile(0.99),
					"p999":  m.Hist.Quantile(0.999),
					"max":   m.Hist.Max,
					"mean":  m.Hist.Mean(),
				}
				continue
			}
			vars[m.Name] = m.Value
		}
		return vars
	}))
})

// metricsMux builds the node's observability HTTP plane: the plain-text
// /metrics page (one line per metric, histograms with percentiles),
// liveness and readiness probes, the trace waterfalls under
// /debug/traces, /debug/vars (expvar JSON, runtime memstats included),
// and the standard /debug/pprof profiling endpoints. With an embedded
// coordinator (-cluster) it also serves the /kv/{key} data gateway.
func metricsMux(rec *trace.Recorder, ml *member.Memberlist, eng *store.Sharded, gw *dist.Cluster) *http.ServeMux {
	publishExpvar()
	mux := http.NewServeMux()
	if gw != nil {
		mux.HandleFunc("/kv/", func(w http.ResponseWriter, r *http.Request) {
			key := strings.TrimPrefix(r.URL.Path, "/kv/")
			if key == "" {
				http.Error(w, "missing key", http.StatusBadRequest)
				return
			}
			switch r.Method {
			case http.MethodGet:
				v, ok, err := gw.Get(key)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadGateway)
					return
				}
				if !ok {
					http.NotFound(w, r)
					return
				}
				w.Header().Set("Content-Type", "application/octet-stream")
				_, _ = w.Write(v)
			case http.MethodPut, http.MethodPost:
				body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				if err := gw.Set(key, body); err != nil {
					http.Error(w, err.Error(), http.StatusBadGateway)
					return
				}
				w.WriteHeader(http.StatusNoContent)
			case http.MethodDelete:
				ok, err := gw.Del(key)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadGateway)
					return
				}
				if !ok {
					http.NotFound(w, r)
					return
				}
				w.WriteHeader(http.StatusNoContent)
			default:
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			}
		})
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = obs.Default().Snapshot().WriteText(w)
	})
	// Liveness: the process is up and the HTTP plane answers — nothing
	// more. Orchestrators restart on its failure, so it must not depend
	// on cluster state.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	// Readiness: safe to route traffic here — the engine is serving,
	// its log is healthy (a poisoned WAL acks no write, so a node
	// carrying one must leave the rotation until it is restarted), and
	// this node's membership view has at least one alive member (itself;
	// zero means the memberlist has been stopped).
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if eng == nil || ml == nil || ml.NumAlive() < 1 {
			http.Error(w, "not ready: membership down", http.StatusServiceUnavailable)
			return
		}
		if err := eng.Err(); err != nil {
			http.Error(w, "not ready: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	// /debug/traces lists the node's tail-promoted slow traces (slowest
	// first) as text waterfalls; ?id=<hex trace id> renders one specific
	// trace from whatever spans this node holds for it.
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if q := r.URL.Query().Get("id"); q != "" {
			id, err := strconv.ParseUint(strings.TrimPrefix(q, "0x"), 16, 64)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad trace id %q: %v", q, err), http.StatusBadRequest)
				return
			}
			trees := trace.Assemble(rec.TraceSpans(id))
			if len(trees) == 0 {
				fmt.Fprintf(w, "no spans for trace %016x\n", id)
				return
			}
			for _, t := range trees {
				t.Waterfall(w)
			}
			return
		}
		trees := trace.Assemble(rec.SlowSpans())
		if len(trees) == 0 {
			fmt.Fprintln(w, "no slow traces recorded (tail promotion is driven by -slow-op)")
			return
		}
		sort.Slice(trees, func(i, j int) bool { return trees[i].Duration() > trees[j].Duration() })
		for i, t := range trees {
			if i > 0 {
				fmt.Fprintln(w)
			}
			t.Waterfall(w)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
