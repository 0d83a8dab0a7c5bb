// distload is the operator's load tool: it offers a cluster a fixed
// open-loop arrival schedule through a dist.Cluster coordinator (quorum
// reads and writes, optional hot-key read cache) and reports what its
// users would have felt. The backends are live nodes (-addrs) or
// in-process servers it spawns (-spawn).
//
// Requests arrive at -rate per second whatever the cluster does: each
// slot is issued at its due time on its own goroutine, and latency is
// taken from the slot's due time, not from when the op got going, so a
// stalled cluster is charged the queueing delay of every request that
// arrived while it stalled (coordinated-omission-safe). Percentiles come
// from the same log-bucketed internal/obs histograms the servers use.
//
//	distload -addrs 10.0.0.1:7070,10.0.0.2:7070,10.0.0.3:7070 -rate 20000
//	distload -spawn 1 -rf 1 -work 5ms -shed-queue 4 -shed-inflight 16 -rate 4000  # 3.2k ops/s capacity
//	distload -spawn 3 -read-cache 4096 -ci -duration 30s   # CI smoke (exit 1 on failure)
//
// It is not the repository's benchmark: numbers to quote, with their
// formulas and spread, come from bench/ (bash bench/run.sh), which also
// measures closed-loop capacity (ops_per_s) on real distnode processes.
package main

import (
	"errors"
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

// options is one distload invocation: the cluster it drives and the
// schedule it offers.
type options struct {
	addrs        []string
	spawn        int
	rf           int
	readCache    int
	shedQueue    int
	shedInflight int
	work         time.Duration
	timeout      time.Duration
	preload      bool
	name         string
	ci           bool
	quiet        bool

	rate      float64 // offered ops/sec; must be positive
	duration  time.Duration
	readPct   int
	dist      string
	zipfS     float64
	zipfV     float64
	keys      int
	valSize   int
	retries   int // extra attempts after a BUSY shed reply
	retryBase time.Duration
	seed      int64
}

func run(args []string, out io.Writer) error {
	var opt options
	fs := flag.NewFlagSet("distload", flag.ContinueOnError)
	fs.SetOutput(out)
	addrs := fs.String("addrs", "", "comma-separated backend csnet addresses (empty: use -spawn)")
	fs.IntVar(&opt.spawn, "spawn", 3, "spawn this many in-process backend servers (ignored when -addrs is set)")
	fs.IntVar(&opt.rf, "rf", 3, "coordinator replication factor")
	fs.IntVar(&opt.readCache, "read-cache", 0, "coordinator hot-key read-cache entries, 0 = off")
	fs.IntVar(&opt.shedQueue, "shed-queue", 0, "spawned servers: per-connection queue depth before shedding BUSY (0 = no shedding)")
	fs.IntVar(&opt.shedInflight, "shed-inflight", 0, "spawned servers: server-wide in-flight budget (0 = unlimited)")
	fs.DurationVar(&opt.work, "work", 0, "spawned servers: simulated per-op backend latency (sleep, not spin); 0 = serve at memory speed")
	fs.Float64Var(&opt.rate, "rate", 10000, "open-loop arrival rate in ops/sec (> 0)")
	fs.DurationVar(&opt.duration, "duration", 10*time.Second, "measured run length")
	fs.IntVar(&opt.readPct, "read-pct", 90, "percentage of operations that are reads")
	fs.StringVar(&opt.dist, "dist", "zipfian", "key distribution: zipfian or uniform")
	fs.Float64Var(&opt.zipfS, "zipf-s", 1.2, "zipf skew exponent (> 1)")
	fs.Float64Var(&opt.zipfV, "zipf-v", 1.0, "zipf value offset (>= 1)")
	fs.IntVar(&opt.keys, "keys", 10000, "keyspace size")
	fs.IntVar(&opt.valSize, "val", 128, "value size in bytes")
	fs.IntVar(&opt.retries, "retries", 0, "extra attempts after a BUSY shed reply")
	fs.DurationVar(&opt.retryBase, "retry-base", time.Millisecond, "base of the full-jitter busy backoff")
	fs.DurationVar(&opt.timeout, "timeout", 2*time.Second, "per-connection op timeout")
	fs.BoolVar(&opt.preload, "preload", true, "write every key once before measuring")
	fs.Int64Var(&opt.seed, "seed", 1, "workload RNG seed")
	fs.StringVar(&opt.name, "name", "distload", "label for the report")
	fs.BoolVar(&opt.ci, "ci", false, "smoke assertions: exit nonzero unless unexpected errors are 0 and (with -read-cache) cache hits are nonzero")
	fs.BoolVar(&opt.quiet, "quiet", false, "suppress the human-readable report")
	if err := fs.Parse(args); err != nil {
		return err
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

// spawnBackends starts opt.spawn in-process KV servers on loopback
// ports, with opt's admission control and simulated work. The caller
// must invoke stop.
func spawnBackends(opt options) (addrs []string, stop func(), err error) {
	var srvs []*csnet.Server
	stop = func() {
		for _, s := range srvs {
			s.Shutdown()
		}
	}
	for range opt.spawn {
		var h csnet.Handler = csnet.NewKVHandler()
		if opt.work > 0 {
			h = slowHandler{h: h, work: opt.work}
		}
		srv := csnet.NewServer(h, 1024)
		srv.SetAdmission(opt.shedQueue, opt.shedInflight)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		srvs = append(srvs, srv)
		addrs = append(addrs, addr)
	}
	return addrs, stop, nil
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

// preload writes every key once from a pool of 64 writers. It is setup,
// not measurement, so it rides out BUSY sheds from an
// admission-controlled target.
func preload(gw *dist.Cluster, keys []string, valSize int) error {
	const pool = 64
	val := make([]byte, valSize)
	var next atomic.Int64
	errs := make(chan error, pool)
	var wg sync.WaitGroup
	for range pool {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := next.Add(1) - 1; n < int64(len(keys)) && len(errs) == 0; n = next.Add(1) - 1 {
				err := gw.Set(keys[n], val)
				for attempt := 1; csnet.IsBusy(err) && attempt < 100; attempt++ {
					time.Sleep(time.Duration(attempt) * time.Millisecond)
					err = gw.Set(keys[n], val)
				}
				if err != nil {
					errs <- fmt.Errorf("preload %s: %w", keys[n], err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func runOnce(opt options) (report, error) {
	if opt.rate <= 0 {
		return report{}, errors.New("distload: -rate must be positive")
	}
	addrs := opt.addrs
	if len(addrs) == 0 {
		if opt.spawn < 1 {
			return report{}, errors.New("distload: need -addrs or -spawn >= 1")
		}
		spawned, stop, err := spawnBackends(opt)
		if err != nil {
			return report{}, err
		}
		defer stop()
		addrs = spawned
	}
	gw, err := dist.NewCluster(dist.ClusterConfig{
		Addrs:       addrs,
		Replication: opt.rf,
		Timeout:     opt.timeout,
		ReadCache:   opt.readCache,
	})
	if err != nil {
		return report{}, err
	}
	defer gw.Close()
	keys := makeKeys(opt.keys)
	if opt.preload {
		if err := preload(gw, keys, opt.valSize); err != nil {
			return report{}, err
		}
	}
	before := obs.Default().Snapshot()
	rep, err := runLoad(gw, keys, opt)
	if err != nil {
		return report{}, err
	}
	attachCacheStats(&rep, before, obs.Default().Snapshot())
	rep.Name = opt.name
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
	fmt.Fprintf(out, "%s: open-loop @ %.0f ops/s, %.1fs, %.0f ops/s served\n",
		rep.Name, rep.Rate, rep.Seconds, rep.Throughput)
	fmt.Fprintf(out, "  ops=%d reads=%d writes=%d notfound=%d shed=%d retries=%d timeouts=%d partial=%d unexpected=%d\n",
		rep.Ops, rep.Reads, rep.Writes, rep.NotFound, rep.Shed, rep.Retries, rep.Timeouts, rep.Partials, rep.Unexpected)
	if r := rep.Read; r.Count > 0 {
		fmt.Fprintf(out, "  read  p50=%s p99=%s p999=%s max=%s mean=%s (from the slot time)\n",
			ns(r.Quantile(0.50)), ns(r.Quantile(0.99)), ns(r.Quantile(0.999)), ns(r.Max), ns(r.Mean()))
		s := rep.ReadSvc
		fmt.Fprintf(out, "  read  service-time p50=%s p99=%s max=%s (from the send)\n",
			ns(s.Quantile(0.50)), ns(s.Quantile(0.99)), ns(s.Max))
	}
	if w := rep.Write; w.Count > 0 {
		fmt.Fprintf(out, "  write p50=%s p99=%s p999=%s max=%s (from the slot time)\n",
			ns(w.Quantile(0.50)), ns(w.Quantile(0.99)), ns(w.Quantile(0.999)), ns(w.Max))
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
