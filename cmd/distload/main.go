// distload is the operator's load tool: it offers a cluster a chosen
// arrival schedule and reports what its users would have felt. It
// drives the pipelined csnet mux — through a dist.Cluster coordinator
// (quorum reads/writes, optional hot-key read cache) or raw against
// backend servers — at live nodes (-addrs) or at in-process ones it
// spawns (-spawn).
//
// Open loop (-rate N) is what it is for: requests arrive on a fixed
// schedule and latency is taken from each slot's intended send time,
// not from when a worker got around to it, so a stalled server is
// charged the queueing delay of every request that arrived while it
// stalled (coordinated-omission-safe). Closed loop (-rate 0) has each
// worker fire its next request when the previous one returns.
// Percentiles come from the same log-bucketed internal/obs histograms
// the servers use.
//
//	distload -addrs 10.0.0.1:7070,10.0.0.2:7070,10.0.0.3:7070 -rate 20000
//	distload -spawn 1 -mode raw -shed-queue 64 -shed-inflight 256 -rate 200000
//	distload -spawn 3 -read-cache 4096 -ci -duration 30s   # CI smoke (exit 1 on failure)
//
// It is not the repository's benchmark: numbers to quote, with their
// formulas and spread, come from bench/ (bash bench/run.sh).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/dist"
	"pdcedu/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

type options struct {
	addrs        []string
	spawn        int
	mode         string
	rf           int
	readCache    int
	shedQueue    int
	shedInflight int
	work         time.Duration
	conns        int
	timeout      time.Duration
	preload      bool
	name         string
	ci           bool
	quiet        bool
	load         loadConfig
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("distload", flag.ContinueOnError)
	fs.SetOutput(out)
	addrs := fs.String("addrs", "", "comma-separated backend csnet addresses (empty: use -spawn)")
	spawn := fs.Int("spawn", 3, "spawn this many in-process backend servers (ignored when -addrs is set)")
	mode := fs.String("mode", "cluster", "cluster: drive a dist.Cluster coordinator; raw: drive csnet clients directly")
	rf := fs.Int("rf", 3, "coordinator replication factor (cluster mode)")
	readCache := fs.Int("read-cache", 0, "coordinator hot-key read-cache entries, 0 = off (cluster mode)")
	shedQueue := fs.Int("shed-queue", 0, "spawned servers: per-connection queue depth before shedding BUSY (0 = no shedding)")
	shedInflight := fs.Int("shed-inflight", 0, "spawned servers: server-wide in-flight budget (0 = unlimited)")
	work := fs.Duration("work", 0, "spawned servers: simulated per-op backend latency (sleep, not spin); 0 = serve at memory speed")
	conns := fs.Int("conns", 4, "muxed client connections (raw mode)")
	workers := fs.Int("workers", 32, "concurrent load workers")
	rate := fs.Float64("rate", 0, "open-loop arrival rate in ops/sec across all workers (0 = closed loop)")
	duration := fs.Duration("duration", 10*time.Second, "measured run length")
	readPct := fs.Int("read-pct", 90, "percentage of operations that are reads")
	distName := fs.String("dist", "zipfian", "key distribution: zipfian or uniform")
	zipfS := fs.Float64("zipf-s", 1.2, "zipf skew exponent (> 1)")
	zipfV := fs.Float64("zipf-v", 1.0, "zipf value offset (>= 1)")
	keys := fs.Int("keys", 10000, "keyspace size")
	valSize := fs.Int("val", 128, "value size in bytes")
	retries := fs.Int("retries", 0, "extra attempts after a BUSY shed reply")
	retryBase := fs.Duration("retry-base", time.Millisecond, "base of the full-jitter busy backoff")
	timeout := fs.Duration("timeout", 2*time.Second, "per-connection op timeout")
	preload := fs.Bool("preload", true, "write every key once before measuring")
	seed := fs.Int64("seed", 1, "workload RNG seed")
	name := fs.String("name", "distload", "label for the report")
	ci := fs.Bool("ci", false, "smoke assertions: exit nonzero unless unexpected errors are 0 and (with -read-cache) cache hits are nonzero")
	quiet := fs.Bool("quiet", false, "suppress the human-readable report")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opt := options{
		spawn: *spawn, mode: *mode, rf: *rf, readCache: *readCache,
		shedQueue: *shedQueue, shedInflight: *shedInflight, work: *work, conns: *conns,
		timeout: *timeout, preload: *preload, name: *name,
		ci: *ci, quiet: *quiet,
		load: loadConfig{
			workers: *workers, rate: *rate, duration: *duration,
			readPct: *readPct, dist: *distName, zipfS: *zipfS, zipfV: *zipfV,
			keys: *keys, valSize: *valSize, retries: *retries, base: *retryBase,
			seed: *seed,
		},
	}
	for _, a := range strings.Split(*addrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			opt.addrs = append(opt.addrs, a)
		}
	}

	rep, err := runOnce(opt)
	if err != nil {
		return err
	}
	if !opt.quiet {
		printReport(out, rep)
	}
	if opt.ci {
		return ciCheck(rep, opt)
	}
	return nil
}

// spawned is a set of in-process backend servers for self-contained runs.
type spawned struct {
	srvs  []*csnet.Server
	addrs []string
}

// slowHandler simulates a backend whose ops block on something real —
// a disk, a downstream RPC — by sleeping before serving. The sleep
// occupies a mux worker slot without burning CPU, which makes server
// capacity concurrency-bound (workers / work) rather than CPU-bound;
// that is what lets a load generator sharing the machine offer a
// genuine 2x-capacity arrival schedule, and what makes an instant
// BUSY rejection meaningfully cheaper than service.
type slowHandler struct {
	h    csnet.Handler
	work time.Duration
}

func (s slowHandler) Serve(req csnet.Request) csnet.Response {
	time.Sleep(s.work)
	return s.h.Serve(req)
}

func spawnBackends(n, shedQueue, shedInflight int, work time.Duration) (*spawned, error) {
	sp := &spawned{}
	for i := 0; i < n; i++ {
		var h csnet.Handler = csnet.NewKVHandler()
		if work > 0 {
			h = slowHandler{h: h, work: work}
		}
		srv := csnet.NewServer(h, 1024)
		srv.SetAdmission(shedQueue, shedInflight)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			sp.stop()
			return nil, err
		}
		sp.srvs = append(sp.srvs, srv)
		sp.addrs = append(sp.addrs, addr)
	}
	return sp, nil
}

func (sp *spawned) stop() {
	for _, s := range sp.srvs {
		if s != nil {
			s.Shutdown()
		}
	}
}

// makeKeys materialises the keyspace once so the hot loop never
// formats strings.
func makeKeys(n int) []string {
	ks := make([]string, n)
	for i := range ks {
		ks[i] = fmt.Sprintf("load-%08d", i)
	}
	return ks
}

// buildRunner resolves addrs (spawning if needed) and constructs the
// requested runner. The caller must invoke cleanup.
func buildRunner(opt options) (runner, []string, func(), error) {
	addrs := opt.addrs
	cleanup := func() {}
	if len(addrs) == 0 {
		if opt.spawn < 1 {
			return nil, nil, nil, fmt.Errorf("need -addrs or -spawn >= 1")
		}
		sp, err := spawnBackends(opt.spawn, opt.shedQueue, opt.shedInflight, opt.work)
		if err != nil {
			return nil, nil, nil, err
		}
		addrs = sp.addrs
		cleanup = sp.stop
	}
	switch opt.mode {
	case "cluster":
		gw, err := dist.NewCluster(dist.ClusterConfig{
			Addrs:       addrs,
			Replication: opt.rf,
			Timeout:     opt.timeout,
			ReadCache:   opt.readCache,
		})
		if err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		stop := cleanup
		return &clusterRunner{gw: gw}, addrs, func() { _ = gw.Close(); stop() }, nil
	case "raw":
		r, err := newRawRunner(addrs, opt.conns, opt.timeout)
		if err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		stop := cleanup
		return r, addrs, func() { r.close(); stop() }, nil
	default:
		cleanup()
		return nil, nil, nil, fmt.Errorf("unknown -mode %q (want cluster or raw)", opt.mode)
	}
}

func preloadKeys(r runner, keys []string, valSize int) error {
	const pool = 64
	var wg sync.WaitGroup
	var next, failed atomic.Int64
	errs := make(chan error, pool)
	for i := 0; i < pool; i++ {
		w := &worker{id: i, val: make([]byte, valSize)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Add(1) - 1
				if n >= int64(len(keys)) || failed.Load() != 0 {
					return
				}
				var err error
				for attempt := 0; attempt < 100; attempt++ {
					// Preload is setup, not measurement: ride out BUSY
					// sheds from an admission-controlled target.
					if err = r.write(w, keys[n], w.val); err == nil || !csnet.IsBusy(err) {
						break
					}
					time.Sleep(time.Duration(attempt+1) * time.Millisecond)
				}
				if err != nil {
					failed.Store(1)
					errs <- fmt.Errorf("preload %s: %w", keys[n], err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

func runOnce(opt options) (report, error) {
	r, _, cleanup, err := buildRunner(opt)
	if err != nil {
		return report{}, err
	}
	defer cleanup()
	keys := makeKeys(opt.load.keys)
	if opt.preload {
		if err := preloadKeys(r, keys, opt.load.valSize); err != nil {
			return report{}, err
		}
	}
	before := obs.Default().Snapshot()
	var rep report
	if rr, ok := r.(*rawRunner); ok && opt.load.rate > 0 {
		// Raw open loop gets the pipelined driver: senders hold the
		// arrival schedule without waiting on responses, so the rig can
		// offer more load than the server absorbs — the whole point of
		// an overload experiment.
		rep, err = runLoadAsync(rr, keys, opt.load, 0)
	} else {
		rep, err = runLoad(r, keys, opt.load)
	}
	if err != nil {
		return report{}, err
	}
	attachCacheStats(&rep, before, obs.Default().Snapshot())
	rep.Name = opt.name
	rep.Mode = opt.mode
	return rep, nil
}

func ciCheck(rep report, opt options) error {
	if rep.Unexpected != 0 {
		return fmt.Errorf("ci: %d unexpected errors (want 0)", rep.Unexpected)
	}
	if rep.Reads+rep.Writes == 0 {
		return fmt.Errorf("ci: no successful operations completed")
	}
	if opt.readCache > 0 && rep.CacheHits == 0 {
		return fmt.Errorf("ci: read cache enabled but zero cache hits")
	}
	return nil
}

func printReport(out io.Writer, rep report) {
	loop := "closed-loop"
	if rep.OpenLoop {
		loop = fmt.Sprintf("open-loop @ %.0f ops/s", rep.RateTarget)
	}
	fmt.Fprintf(out, "%s: %s %s, %.1fs, %.0f ops/s served\n",
		rep.Name, rep.Mode, loop, rep.Seconds, rep.Throughput)
	fmt.Fprintf(out, "  ops=%d reads=%d writes=%d notfound=%d shed=%d retries=%d timeouts=%d partial=%d unexpected=%d\n",
		rep.Ops, rep.Reads, rep.Writes, rep.NotFound, rep.Shed, rep.Retries, rep.Timeouts, rep.Partials, rep.Unexpected)
	if rep.Reads > 0 {
		fmt.Fprintf(out, "  read  p50=%s p99=%s p999=%s max=%s mean=%s\n",
			ns(rep.ReadP50), ns(rep.ReadP99), ns(rep.ReadP999), ns(rep.ReadMax), ns(rep.ReadMean))
	}
	if rep.Writes > 0 {
		fmt.Fprintf(out, "  write p50=%s p99=%s p999=%s max=%s\n",
			ns(rep.WriteP50), ns(rep.WriteP99), ns(rep.WriteP999), ns(rep.WriteMax))
	}
	if rep.SvcReadP99 > 0 {
		fmt.Fprintf(out, "  read service-time p50=%s p99=%s max=%s (excl. schedule lag)\n",
			ns(rep.SvcReadP50), ns(rep.SvcReadP99), ns(rep.SvcReadMax))
	}
	if rep.CacheHits+rep.CacheMisses > 0 {
		fmt.Fprintf(out, "  cache hits=%d misses=%d invalidations=%d\n",
			rep.CacheHits, rep.CacheMisses, rep.CacheInvals)
	}
	if rep.ServerShed > 0 {
		fmt.Fprintf(out, "  server shed=%d\n", rep.ServerShed)
	}
}

func ns(v uint64) string { return time.Duration(v).String() }
