package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/dist"
	"pdcedu/internal/obs"
)

// runner abstracts the two load targets: a dist.Cluster coordinator
// (quorum reads/writes, optional hot-key cache) and raw csnet clients
// speaking the pipelined mux straight at one or more backends.
type runner interface {
	read(w *worker, key string) error
	write(w *worker, key string, val []byte) error
	close()
}

// errNotFound classifies a clean miss: it is not a failure, but the
// report counts it separately to show reads actually hit populated
// keys.
var errNotFound = errors.New("distload: key not found")

type clusterRunner struct{ gw *dist.Cluster }

func (r *clusterRunner) read(_ *worker, key string) error {
	_, ok, err := r.gw.Get(key)
	if err != nil {
		return err
	}
	if !ok {
		return errNotFound
	}
	return nil
}

func (r *clusterRunner) write(_ *worker, key string, val []byte) error {
	return r.gw.Set(key, val)
}

func (r *clusterRunner) close() { _ = r.gw.Close() }

// rawRunner drives csnet clients directly. Each worker is pinned to
// one client (worker index mod conns), so -conns controls how many
// muxed TCP connections carry the pipelined traffic.
type rawRunner struct {
	clients []*csnet.Client
	addrs   []string
}

func newRawRunner(addrs []string, conns int, timeout time.Duration) (*rawRunner, error) {
	if conns < 1 {
		conns = 1
	}
	r := &rawRunner{addrs: addrs}
	for i := 0; i < conns; i++ {
		cl, err := csnet.Dial(addrs[i%len(addrs)], timeout)
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, cl)
	}
	return r, nil
}

func (r *rawRunner) client(w *worker) *csnet.Client {
	return r.clients[w.id%len(r.clients)]
}

func (r *rawRunner) read(w *worker, key string) error {
	_, ok, err := r.client(w).Get(key)
	if err != nil {
		return err
	}
	if !ok {
		return errNotFound
	}
	return nil
}

func (r *rawRunner) write(w *worker, key string, val []byte) error {
	return r.client(w).Set(key, val)
}

func (r *rawRunner) close() {
	for _, cl := range r.clients {
		if cl != nil {
			_ = cl.Close()
		}
	}
}

// keyPicker yields key indices for one worker. Zipfian pickers are
// per-worker (rand.Zipf is not concurrency-safe) but share the same
// skew, so the hot set is the same across workers — that is what makes
// a key "hot" cluster-wide.
type keyPicker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	n    uint64
}

func newKeyPicker(distName string, n int, s, v float64, seed int64) (*keyPicker, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &keyPicker{rng: rng, n: uint64(n)}
	switch distName {
	case "uniform":
	case "zipfian":
		// rand.NewZipf requires s > 1, v >= 1.
		p.zipf = rand.NewZipf(rng, s, v, uint64(n-1))
		if p.zipf == nil {
			return nil, fmt.Errorf("invalid zipf parameters s=%v v=%v", s, v)
		}
	default:
		return nil, fmt.Errorf("unknown key distribution %q (want uniform or zipfian)", distName)
	}
	return p, nil
}

func (p *keyPicker) next() uint64 {
	if p.zipf != nil {
		return p.zipf.Uint64()
	}
	return p.rng.Uint64() % p.n
}

// loadConfig is one measured run.
type loadConfig struct {
	workers  int
	rate     float64 // target ops/sec across all workers; 0 = closed loop
	duration time.Duration
	readPct  int
	dist     string
	zipfS    float64
	zipfV    float64
	keys     int
	valSize  int
	retries  int // extra attempts after a BUSY shed reply
	base     time.Duration
	seed     int64
}

// report is the outcome of one run. All latencies are nanoseconds; in
// open-loop mode they are coordinated-omission corrected (measured
// from the request's intended send time on the fixed arrival
// schedule, not from when a delayed worker finally issued it).
type report struct {
	Name       string
	Mode       string
	OpenLoop   bool
	RateTarget float64
	Seconds    float64

	Ops        uint64
	Reads      uint64
	Writes     uint64
	NotFound   uint64
	Shed       uint64
	Retries    uint64
	Timeouts   uint64
	Partials   uint64
	Unexpected uint64
	Throughput float64

	ReadP50   uint64
	ReadP99   uint64
	ReadP999  uint64
	ReadMax   uint64
	ReadMean  uint64
	WriteP50  uint64
	WriteP99  uint64
	WriteP999 uint64
	WriteMax  uint64

	// Service-time percentiles, measured from the moment the request
	// actually hit the wire rather than from its intended slot time.
	// Populated by the pipelined open-loop path; the gap between these
	// and the CO-corrected numbers above is exactly the queueing delay
	// coordinated omission would have hidden.
	SvcReadP50 uint64
	SvcReadP99 uint64
	SvcReadMax uint64

	CacheHits   uint64
	CacheMisses uint64
	CacheInvals uint64
	ServerShed  uint64
}

type worker struct {
	id   int
	pick *keyPicker
	val  []byte
}

// runLoad drives cfg against r and reports CO-safe latencies.
//
// Open loop (rate > 0): the arrival schedule is fixed up front — slot
// i's intended send time is start + i/rate, handed out by a global
// atomic counter. A worker that falls behind does NOT skip slots or
// reset the clock; it issues the overdue request immediately and the
// recorded latency includes the time the request spent waiting for a
// free worker. That is the coordinated-omission correction: a server
// that stalls for a second shows a second of tail latency instead of
// quietly receiving one fewer request.
//
// Closed loop (rate == 0): each worker issues its next request the
// moment the previous one completes; latency is pure service time and
// throughput measures capacity.
func runLoad(r runner, keys []string, cfg loadConfig) (report, error) {
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.base <= 0 {
		cfg.base = time.Millisecond
	}
	readHist, writeHist := obs.NewHistogram(), obs.NewHistogram()
	var reads, writes, notFound, shed, retries, timeouts, partials, unexpected atomic.Uint64

	classify := func(err error, isRead bool) {
		switch {
		case err == nil:
			if isRead {
				reads.Add(1)
			} else {
				writes.Add(1)
			}
		case errors.Is(err, errNotFound):
			reads.Add(1)
			notFound.Add(1)
		case csnet.IsBusy(err):
			shed.Add(1)
		case isTimeout(err):
			timeouts.Add(1)
		case isPartial(err):
			partials.Add(1)
		default:
			unexpected.Add(1)
		}
	}

	var slot atomic.Int64
	openLoop := cfg.rate > 0
	var interval time.Duration
	var slots int64
	if openLoop {
		interval = time.Duration(float64(time.Second) / cfg.rate)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		slots = int64(cfg.duration / interval)
		if slots < 1 {
			slots = 1
		}
	}

	start := time.Now()
	deadline := start.Add(cfg.duration)
	var wg sync.WaitGroup
	for i := 0; i < cfg.workers; i++ {
		pick, err := newKeyPicker(cfg.dist, cfg.keys, cfg.zipfS, cfg.zipfV, cfg.seed+int64(i))
		if err != nil {
			return report{}, err
		}
		w := &worker{id: i, pick: pick, val: make([]byte, cfg.valSize)}
		opRng := rand.New(rand.NewSource(cfg.seed ^ int64(i)<<17))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var intended time.Time
				if openLoop {
					s := slot.Add(1) - 1
					if s >= slots {
						return
					}
					intended = start.Add(time.Duration(s) * interval)
					if d := time.Until(intended); d > 0 {
						time.Sleep(d)
					}
				} else {
					intended = time.Now()
					if !intended.Before(deadline) {
						return
					}
				}
				key := keys[w.pick.next()%uint64(len(keys))]
				isRead := opRng.Intn(100) < cfg.readPct
				var err error
				for try := 0; ; try++ {
					if isRead {
						err = r.read(w, key)
					} else {
						err = r.write(w, key, w.val)
					}
					if err == nil || !csnet.IsBusy(err) || try >= cfg.retries {
						break
					}
					retries.Add(1)
					// Full-jitter exponential backoff, mirroring
					// csnet.(*Client).DoRetry: uniform in [0, base<<try).
					time.Sleep(time.Duration(opRng.Int63n(int64(cfg.base << uint(try)))))
				}
				lat := time.Since(intended)
				classify(err, isRead)
				if err == nil || errors.Is(err, errNotFound) {
					if isRead {
						readHist.Observe(lat.Nanoseconds())
					} else {
						writeHist.Observe(lat.Nanoseconds())
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rs, ws := readHist.Snapshot(), writeHist.Snapshot()
	rep := report{
		Mode:       "raw",
		OpenLoop:   openLoop,
		RateTarget: cfg.rate,
		Seconds:    elapsed.Seconds(),
		Reads:      reads.Load(),
		Writes:     writes.Load(),
		NotFound:   notFound.Load(),
		Shed:       shed.Load(),
		Retries:    retries.Load(),
		Timeouts:   timeouts.Load(),
		Partials:   partials.Load(),
		Unexpected: unexpected.Load(),
		ReadP50:    rs.Quantile(0.50),
		ReadP99:    rs.Quantile(0.99),
		ReadP999:   rs.Quantile(0.999),
		ReadMax:    rs.Max,
		ReadMean:   rs.Mean(),
		WriteP50:   ws.Quantile(0.50),
		WriteP99:   ws.Quantile(0.99),
		WriteP999:  ws.Quantile(0.999),
		WriteMax:   ws.Max,
	}
	rep.Ops = rep.Reads + rep.Writes + rep.Shed + rep.Timeouts + rep.Partials + rep.Unexpected
	if elapsed > 0 {
		rep.Throughput = float64(rep.Reads+rep.Writes) / elapsed.Seconds()
	}
	return rep, nil
}

func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, csnet.ErrWaitTimeout) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func isPartial(err error) bool {
	var pe *dist.PartialWriteError
	return errors.As(err, &pe)
}

// counterDelta subtracts the named counter across two registry
// snapshots, clamping at zero (the counter may not exist in before).
func counterDelta(before, after obs.Snapshot, name string) uint64 {
	b, _ := before.Get(name)
	a, ok := after.Get(name)
	if !ok || a.Value < b.Value {
		return 0
	}
	return uint64(a.Value - b.Value)
}

// attachCacheStats folds the coordinator cache and server shed
// counter deltas for the run into the report. The obs registry is
// process-global, so deltas are only meaningful when the run owns the
// process (which distload always does).
func attachCacheStats(rep *report, before, after obs.Snapshot) {
	rep.CacheHits = counterDelta(before, after, "dist.cache.hits")
	rep.CacheMisses = counterDelta(before, after, "dist.cache.misses")
	rep.CacheInvals = counterDelta(before, after, "dist.cache.invalidations")
	rep.ServerShed = counterDelta(before, after, "csnet.server.shed")
}

// flight is one pipelined request awaiting its response.
type flight struct {
	call     *csnet.Call
	intended time.Time
	sent     time.Time
	isRead   bool
}

// runLoadAsync is the pipelined open-loop raw driver. Synchronous
// workers cannot offer more load than (workers / service time), so a
// saturated server quietly throttles them — the rig would be
// coordinating with the very omission it is supposed to expose.
// Here each connection has a sender that issues requests on the global
// slot schedule without waiting for responses (csnet's mux pipelines
// them) and a collector that resolves the responses in send order.
// Two latencies are recorded per op: CO-corrected (from the slot's
// intended time — what an arriving user would experience) and service
// time (from the actual send — what the server delivered for the
// requests it accepted).
//
// maxInflight bounds outstanding requests across all connections;
// when an overloaded no-shed server stops answering, the sender
// blocks on that budget and the lag is charged to every subsequent
// slot, which is the honest CO accounting of a system that has
// stopped absorbing its arrival rate.
func runLoadAsync(r *rawRunner, keys []string, cfg loadConfig, maxInflight int) (report, error) {
	if cfg.rate <= 0 {
		return report{}, errors.New("runLoadAsync needs an open-loop rate")
	}
	if maxInflight < 1 {
		maxInflight = 65536
	}
	readCO, readSvc, writeCO := obs.NewHistogram(), obs.NewHistogram(), obs.NewHistogram()
	var reads, writes, notFound, shed, timeouts, unexpected atomic.Uint64

	interval := time.Duration(float64(time.Second) / cfg.rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	slots := int64(cfg.duration / interval)
	if slots < 1 {
		slots = 1
	}
	var slot atomic.Int64
	sem := make(chan struct{}, maxInflight)
	start := time.Now()

	var wg sync.WaitGroup
	for i, cl := range r.clients {
		q := make(chan flight, maxInflight)
		pick, err := newKeyPicker(cfg.dist, cfg.keys, cfg.zipfS, cfg.zipfV, cfg.seed+int64(i))
		if err != nil {
			return report{}, err
		}
		opRng := rand.New(rand.NewSource(cfg.seed ^ int64(i)<<17))
		val := make([]byte, cfg.valSize)
		cl := cl
		wg.Add(1)
		go func() { // sender
			defer wg.Done()
			defer close(q)
			for {
				s := slot.Add(1) - 1
				if s >= slots {
					return
				}
				intended := start.Add(time.Duration(s) * interval)
				if d := time.Until(intended); d > 0 {
					time.Sleep(d)
				}
				sem <- struct{}{}
				key := keys[pick.next()%uint64(len(keys))]
				isRead := opRng.Intn(100) < cfg.readPct
				req := csnet.Request{Op: csnet.OpGet, Key: key}
				if !isRead {
					req = csnet.Request{Op: csnet.OpSet, Key: key, Value: val}
				}
				sent := time.Now()
				q <- flight{call: cl.Send(req), intended: intended, sent: sent, isRead: isRead}
			}
		}()
		wg.Add(1)
		go func() { // collector
			defer wg.Done()
			for f := range q {
				resp, err := f.call.Response()
				<-sem
				co := time.Since(f.intended).Nanoseconds()
				svc := time.Since(f.sent).Nanoseconds()
				switch {
				case err != nil:
					if isTimeout(err) {
						timeouts.Add(1)
					} else {
						unexpected.Add(1)
					}
					continue
				case resp.Status == csnet.StatusBusy:
					shed.Add(1)
					continue
				case resp.Status == csnet.StatusNotFound:
					notFound.Add(1)
				case resp.Status != csnet.StatusOK:
					unexpected.Add(1)
					continue
				}
				if f.isRead {
					reads.Add(1)
					readCO.Observe(co)
					readSvc.Observe(svc)
				} else {
					writes.Add(1)
					writeCO.Observe(co)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rs, ss, ws := readCO.Snapshot(), readSvc.Snapshot(), writeCO.Snapshot()
	rep := report{
		Mode:       "raw",
		OpenLoop:   true,
		RateTarget: cfg.rate,
		Seconds:    elapsed.Seconds(),
		Reads:      reads.Load(),
		Writes:     writes.Load(),
		NotFound:   notFound.Load(),
		Shed:       shed.Load(),
		Timeouts:   timeouts.Load(),
		Unexpected: unexpected.Load(),
		ReadP50:    rs.Quantile(0.50),
		ReadP99:    rs.Quantile(0.99),
		ReadP999:   rs.Quantile(0.999),
		ReadMax:    rs.Max,
		ReadMean:   rs.Mean(),
		WriteP50:   ws.Quantile(0.50),
		WriteP99:   ws.Quantile(0.99),
		WriteP999:  ws.Quantile(0.999),
		WriteMax:   ws.Max,
		SvcReadP50: ss.Quantile(0.50),
		SvcReadP99: ss.Quantile(0.99),
		SvcReadMax: ss.Max,
	}
	rep.Ops = rep.Reads + rep.Writes + rep.NotFound + rep.Shed + rep.Timeouts + rep.Unexpected
	if elapsed > 0 {
		rep.Throughput = float64(rep.Reads+rep.Writes) / elapsed.Seconds()
	}
	return rep, nil
}
