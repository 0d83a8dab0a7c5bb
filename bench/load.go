package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pdcedu/internal/dist"
)

const (
	windowLen  = time.Second // one measurement window
	warmupLen  = 3 * time.Second
	preloadMax = 256 // keys per preload MSet
)

// counter is an atomic padded to its own cache line: eight workers
// bump theirs on every op and must not share lines.
type counter struct {
	atomic.Int64
	_ [56]byte
}

// client is one closed-loop worker's state across all traffic phases
// of a run.
type client struct {
	stream *opStream
	// Raw per-op latencies of OK ops in recorded phases, nanoseconds.
	getNs, setNs []uint32
	// marks[i] is the length of getNs/setNs when recorded window i
	// began on this worker, so per-window percentiles can be cut out.
	marks []mark
	// outage collects the keys this worker Set while g.trackOutage.
	outage []int32

	gets, sets, failed counter // OK Gets, OK Sets, failed ops (cumulative)
}

type mark struct{ window, gets, sets int }

// generator drives one dist.Cluster with the workload's op streams.
type generator struct {
	cluster *dist.Cluster
	keys    []string
	clients [workers]*client
	// issued[k] is the highest seq any Set of key k was sent with;
	// acked[k] the seq of its last acknowledged Set. Only the key's
	// owning worker writes them; any worker validating a Get reads.
	issued, acked []atomic.Uint32
	firstErr      atomic.Pointer[string]
	trackOutage   bool
	spans         *spanRing // nil unless tracing
}

func newGenerator(wl workload, cluster *dist.Cluster, seed int64) *generator {
	g := &generator{
		cluster: cluster,
		keys:    make([]string, numKeys),
		issued:  make([]atomic.Uint32, numKeys),
		acked:   make([]atomic.Uint32, numKeys),
	}
	for i := range g.keys {
		g.keys[i] = keyName(i)
	}
	for i := range g.clients {
		g.clients[i] = &client{stream: newOpStream(seed, i, wl.readFrac, wl.zipf)}
	}
	return g
}

// reserve preallocates the raw-sample slices for a recorded phase of
// about d at up to rate ops/s in total, so appends inside the phase
// do not allocate.
func (g *generator) reserve(d time.Duration, rate float64) {
	per := int(d.Seconds()*rate) / workers
	for _, c := range g.clients {
		c.getNs = slices.Grow(c.getNs, per)
		c.setNs = slices.Grow(c.setNs, per)
	}
}

func (g *generator) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	g.firstErr.CompareAndSwap(nil, &msg)
}

// preload writes seq 0 of every key through the coordinator in MSet
// batches, each worker its own keys. MSet returns nil only when every
// key reached its write quorum; with all three nodes up that is rf=3.
func (g *generator) preload() error {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ks := make([]string, 0, preloadMax)
			vs := make([][]byte, 0, preloadMax)
			flush := func() {
				if len(ks) > 0 && errs[w] == nil {
					errs[w] = g.cluster.MSet(ks, vs)
				}
				ks, vs = ks[:0], vs[:0]
			}
			for k := w; k < numKeys; k += workers {
				ks = append(ks, g.keys[k])
				vs = append(vs, makeValue(g.keys[k], 0))
				if len(ks) == preloadMax {
					flush()
				}
			}
			flush()
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// sample is what the controller reads at every window boundary.
type sample struct {
	at           time.Time
	gets, sets   int64
	nodes        int           // node processes running at the boundary
	nodeUser     time.Duration // Σ over them
	nodeSys      time.Duration
	generatorCPU time.Duration
}

func (g *generator) counts() (gets, sets, failed int64) {
	for _, c := range g.clients {
		gets += c.gets.Load()
		sets += c.sets.Load()
		failed += c.failed.Load()
	}
	return
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (g *generator) takeSample(nodes []*node) sample {
	s := sample{at: time.Now(), generatorCPU: selfCPU()}
	s.gets, s.sets, _ = g.counts()
	for _, n := range nodes {
		u, sy, err := n.cpu()
		if err != nil {
			g.fail("cpu time of node %d: %v", n.idx, err)
			continue
		}
		s.nodes++
		s.nodeUser += u
		s.nodeSys += sy
	}
	return s
}

// run drives traffic from all workers for n windows of length each and
// returns the n+1 boundary samples. With record set, OK ops add raw
// latency samples and window marks starting at window index base.
func (g *generator) run(nodes []*node, n int, each time.Duration, record bool, base int) []sample {
	// phase: -1 stop, otherwise the current window index.
	var phase atomic.Int64
	phase.Store(int64(base))
	var wg sync.WaitGroup
	for w := range g.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g.work(w, &phase, record)
		}(w)
	}
	samples := make([]sample, 0, n+1)
	start := time.Now()
	samples = append(samples, g.takeSample(nodes))
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * each)))
		if i == n {
			phase.Store(-1)
		} else {
			phase.Store(int64(base + i))
		}
		samples = append(samples, g.takeSample(nodes))
	}
	wg.Wait()
	return samples
}

func (g *generator) work(w int, phase *atomic.Int64, record bool) {
	c := g.clients[w]
	lastWin := -1
	for {
		win := int(phase.Load())
		if win < 0 {
			return
		}
		if record && win != lastWin {
			c.marks = append(c.marks, mark{win, len(c.getNs), len(c.setNs)})
			lastWin = win
		}
		get, k := c.stream.next()
		key := g.keys[k]
		if get {
			t0 := time.Now()
			v, ok, err := g.cluster.Get(key)
			t1 := time.Now()
			if !g.checkGet(k, v, ok, err) {
				c.failed.Add(1)
				continue
			}
			c.gets.Add(1)
			if record {
				c.getNs = append(c.getNs, clampNs(t1.Sub(t0)))
				g.spans.add(w, "get", t0, t1)
			}
			continue
		}
		seq := g.issued[k].Add(1)
		val := makeValue(key, seq)
		t0 := time.Now()
		err := g.cluster.Set(key, val)
		t1 := time.Now()
		if err != nil {
			g.fail("set %s seq %d: %v", key, seq, err)
			c.failed.Add(1)
			continue
		}
		g.acked[k].Store(seq)
		c.sets.Add(1)
		if g.trackOutage {
			c.outage = append(c.outage, int32(k))
		}
		if record {
			c.setNs = append(c.setNs, clampNs(t1.Sub(t0)))
			g.spans.add(w, "set", t0, t1)
		}
	}
}

func clampNs(d time.Duration) uint32 {
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

// checkGet is the per-Get correctness check: the read succeeded, the
// key exists (every key is preloaded), the value names the key it was
// read under, and its seq is one that was actually issued.
func (g *generator) checkGet(k int, v []byte, ok bool, err error) bool {
	switch {
	case err != nil:
		g.fail("get %s: %v", g.keys[k], err)
		return false
	case !ok:
		g.fail("get %s: preloaded key not found", g.keys[k])
		return false
	}
	key, seq, valid := parseValue(v)
	if !valid || key != g.keys[k] {
		g.fail("get %s: value %q does not describe that key", g.keys[k], v)
		return false
	}
	if hi := g.issued[k].Load(); seq > hi {
		g.fail("get %s: seq %d was never issued (highest %d)", g.keys[k], seq, hi)
		return false
	}
	return true
}

// verifySample reads n keys (evenly strided over the keyspace, from a
// seed-dependent offset) back through the coordinator and compares
// each with its last acknowledged value. Workers are stopped, so no
// Set is in flight and the last ack is the truth. Returns mismatches.
func (g *generator) verifySample(seed int64, n int) int {
	bad := 0
	stride := numKeys / n
	off := int(uint64(seed) % uint64(stride))
	for i := 0; i < n; i++ {
		k := off + i*stride
		v, ok, err := g.cluster.Get(g.keys[k])
		if !g.checkGet(k, v, ok, err) {
			bad++
			continue
		}
		if _, seq, _ := parseValue(v); seq != g.acked[k].Load() {
			g.fail("readback %s: seq %d, last acked %d", g.keys[k], seq, g.acked[k].Load())
			bad++
		}
	}
	return bad
}

// ownMallocs is the generator's cumulative heap-object count.
func ownMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
