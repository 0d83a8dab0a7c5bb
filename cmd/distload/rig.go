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

// keyPicker yields the dispatcher's key indices, uniform or zipfian
// (rand.Zipf is not concurrency-safe, so it has one owner).
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

// report is the outcome of one run. Read and Write hold
// coordinated-omission-corrected latencies in nanoseconds, measured
// from each op's slot time on the fixed arrival schedule; ReadSvc holds
// the same reads' service time, measured from when the op was sent.
// Both include every queue in the cluster; the gap between them is the
// dispatcher's own lag.
type report struct {
	Name       string
	Rate       float64
	Seconds    float64
	Throughput float64

	Ops        uint64
	Reads      uint64
	Writes     uint64
	NotFound   uint64
	Shed       uint64
	Retries    uint64
	Timeouts   uint64
	Partials   uint64
	Unexpected uint64

	Read, ReadSvc, Write obs.HistogramSnapshot

	CacheHits   uint64
	CacheMisses uint64
	CacheInvals uint64
	ServerShed  uint64
}

// maxInflight bounds the ops the dispatcher has issued and not yet seen
// resolve. When a cluster that does not shed stops answering, the
// dispatcher blocks here and the lag is charged to every later slot:
// the honest CO accounting of a system that has stopped absorbing its
// arrival rate.
const maxInflight = 65536

// errNotFound classifies a clean miss: a served read, counted
// separately to show reads actually hit populated keys.
var errNotFound = errors.New("distload: key not found")

// tally is one run's outcome counts and latency histograms, shared by
// every op's goroutine.
type tally struct {
	reads, writes, notFound, shed, retries, timeouts, partials, unexpected atomic.Uint64
	read, readSvc, write                                                   *obs.Histogram
}

// runLoad is the dispatcher: it offers gw opt's open-loop schedule.
// Slot i is due at start + i/rate. The dispatcher sleeps until a slot
// is due (an overdue slot goes at once: the clock is never reset) and
// issues it on its own goroutine, so it never waits for a reply and a
// slow cluster cannot slow the schedule; only maxInflight can. Each op
// records two latencies: from its slot time — what an arriving user
// would feel — and from its send.
func runLoad(gw *dist.Cluster, keys []string, opt options) (report, error) {
	pick, err := newKeyPicker(opt.dist, len(keys), opt.zipfS, opt.zipfV, opt.seed)
	if err != nil {
		return report{}, err
	}
	val := make([]byte, opt.valSize)
	base := max(opt.retryBase, time.Nanosecond) // rand.Int63n panics on 0
	interval := max(time.Duration(float64(time.Second)/opt.rate), time.Nanosecond)
	slots := max(int64(opt.duration/interval), 1)
	t := &tally{read: obs.NewHistogram(), readSvc: obs.NewHistogram(), write: obs.NewHistogram()}
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for s := range slots {
		due := start.Add(time.Duration(s) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		key := keys[pick.next()%uint64(len(keys))]
		isRead := pick.rng.Intn(100) < opt.readPct
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			sent := time.Now()
			var err error
			for try := 0; ; try++ {
				if isRead {
					var ok bool
					if _, ok, err = gw.Get(key); err == nil && !ok {
						err = errNotFound
					}
				} else {
					err = gw.Set(key, val)
				}
				if !csnet.IsBusy(err) || try >= opt.retries {
					break
				}
				t.retries.Add(1)
				// Full-jitter exponential backoff, uniform in
				// [0, base<<try), so shed callers do not retry in step.
				time.Sleep(time.Duration(rand.Int63n(int64(base << try))))
			}
			t.record(err, isRead, due, sent)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := report{
		Rate: opt.rate, Seconds: elapsed.Seconds(),
		Reads: t.reads.Load(), Writes: t.writes.Load(), NotFound: t.notFound.Load(),
		Shed: t.shed.Load(), Retries: t.retries.Load(), Timeouts: t.timeouts.Load(),
		Partials: t.partials.Load(), Unexpected: t.unexpected.Load(),
		Read: t.read.Snapshot(), ReadSvc: t.readSvc.Snapshot(), Write: t.write.Snapshot(),
	}
	rep.Ops = rep.Reads + rep.Writes + rep.Shed + rep.Timeouts + rep.Partials + rep.Unexpected
	rep.Throughput = float64(rep.Reads+rep.Writes) / elapsed.Seconds()
	return rep, nil
}

// record classifies one op's final outcome and, for a served op, books
// its latencies.
func (t *tally) record(err error, isRead bool, due, sent time.Time) {
	switch {
	case err == nil:
	case errors.Is(err, errNotFound):
		t.notFound.Add(1)
	case csnet.IsBusy(err):
		t.shed.Add(1)
		return
	case isTimeout(err):
		t.timeouts.Add(1)
		return
	case isPartial(err):
		t.partials.Add(1)
		return
	default:
		t.unexpected.Add(1)
		return
	}
	now := time.Now()
	if !isRead {
		t.writes.Add(1)
		t.write.Observe(now.Sub(due).Nanoseconds())
		return
	}
	t.reads.Add(1)
	t.read.Observe(now.Sub(due).Nanoseconds())
	t.readSvc.Observe(now.Sub(sent).Nanoseconds())
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
