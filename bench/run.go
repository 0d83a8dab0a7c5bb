package main

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/dist"
	"pdcedu/internal/obs"
	"pdcedu/internal/trace"
)

const (
	victim     = numNodes - 1 // the node every heal cycle kills
	healCycles = 3            // kill / restart / catch-up cycles after the windows
	// detectDelay is how long the coordinator keeps routing to the
	// crashed node before it is told: the stand-in for the failure
	// detector's suspicion window. Writes in it fail on one replica,
	// still reach quorum, and queue hints.
	detectDelay  = 200 * time.Millisecond
	sampleKeys   = 2000 // keys read back after every workload
	traceSample  = 64   // head-sample 1 in N ops in traced windows
	traceRing    = 1 << 16
	userBytesSet = 9 + valueSize // len(key) + len(value)
)

// value is one reported number: the figure itself, how many samples
// stand behind it, and (for medians) the quartiles of those samples.
type value struct {
	V      float64
	N      int
	Q1, Q3 float64
	HasQ   bool
}

func scalar(v float64, n int) value { return value{V: v, N: n} }

func median(vs []float64) value {
	s := summarize(vs)
	return value{V: s.Median, N: s.N, Q1: s.Q1, Q3: s.Q3, HasQ: true}
}

// outcome is everything one workload run produced.
type outcome struct {
	Workload  string
	Seed      int64
	Attempted int64
	Failed    int64
	FirstErr  string
	Metrics   map[string]value // end-to-end and per-layer, by name
	// Series holds the per-window values behind the median-window
	// metrics, in window order, so a reader can see the run's own noise.
	Series map[string][]float64
}

// totals is every cumulative figure read at a segment boundary.
type totals struct {
	at          time.Time
	gets, sets  int64
	writeBytes  int64  // Σ running nodes' /proc/<pid>/io write_bytes
	nodeMallocs uint64 // Σ running nodes' memstats.Mallocs
	// The generator's own Mallocs, read first and last in snap, so a
	// segment's delta (after.First - before.Last) leaves out what the
	// two snaps themselves allocated.
	ownMallocsFirst, ownMallocsLast uint64
	stats                           obs.Snapshot // running nodes' registries merged with the generator's
}

// segment is one stretch of a run between two totals: recorded
// traffic (with its window samples) or a heal cycle.
type segment struct {
	before, after totals
	traffic       bool
	traced        bool
	windows       []sample
}

type healResult struct {
	recover, catchup time.Duration
	nodeRecovery     time.Duration // the node's own store.wal.recovery_ns
	recovered        int64         // snapshot entries + WAL records it replayed
}

// run is the state of one workload run.
type run struct {
	rig      *rig
	wl       workload
	gen      *generator
	cluster  *dist.Cluster
	tracer   *trace.Recorder
	segments []segment
	heals    []healResult
	// progSpans are the program's own spans (coordinator and nodes),
	// pulled after each traced segment.
	progSpans []trace.Span
	window    int // next recorded window index
	markDown  *time.Timer
	extra     int64 // verification reads attempted outside the workers
	extraBad  int64
	series    map[string][]float64
}

// runWorkload runs one workload from a cold start — spawn, preload,
// warm up, measure, heal, verify — and returns its metrics. Node
// processes are gone when it returns.
func runWorkload(r *rig, wl workload, seed int64, seconds int, traced bool, build time.Duration) (*outcome, error) {
	ru := &run{rig: r, wl: wl}
	defer r.stop()
	sub := wl.name + "-" + strconv.FormatInt(seed, 10)

	// --- set-up: everything up to the first measured op.
	t0 := time.Now()
	extra := []string{"-trace-ring", strconv.Itoa(traceRing)}
	if wl.snapshotEvery > 0 {
		extra = append(extra, "-snapshot-every", strconv.FormatInt(wl.snapshotEvery, 10))
	}
	if err := r.spawn(sub, extra...); err != nil {
		return nil, err
	}
	addrs := make([]string, numNodes)
	for i, n := range r.nodes {
		addrs[i] = n.addr
	}
	if err := r.waitConverged(20 * time.Second); err != nil {
		return nil, err
	}
	converge := time.Since(t0)
	ru.tracer = trace.New(trace.Config{Node: "bench", Capacity: traceRing})
	ru.tracer.SetSampleEvery(traceSample)
	var err error
	ru.cluster, err = dist.NewCluster(dist.ClusterConfig{
		Addrs: addrs, Replication: numNodes, ReadCache: wl.readCache, Tracer: ru.tracer,
	})
	if err != nil {
		return nil, err
	}
	defer ru.cluster.Close()
	ru.gen = newGenerator(wl, ru.cluster, seed)
	if err := ru.gen.preload(); err != nil {
		return nil, err
	}
	ru.gen.reserve(time.Duration(seconds)*time.Second, reserveRate(wl))
	ru.gen.run(r.nodes, 1, warmupLen, false, 0)
	setup := time.Since(t0)

	// --- measured phase.
	if traced {
		ru.gen.spans = newSpanRing(spanRingSize)
	}
	if err := ru.measure(seconds, traced); err != nil {
		return nil, err
	}
	hwm, err := ru.nodesHWM()
	if err != nil {
		return nil, err
	}
	gauges, err := ru.nodeGaugeMax()
	if err != nil {
		return nil, err
	}

	// --- read-back of last acknowledged values.
	ru.extra += sampleKeys
	ru.extraBad += int64(ru.gen.verifySample(seed, sampleKeys))

	o := &outcome{Workload: wl.name, Seed: seed, Metrics: map[string]value{}}
	gets, sets, failed := ru.gen.counts()
	o.Attempted = gets + sets + failed + ru.extra
	o.Failed = failed + ru.extraBad
	if msg := ru.gen.firstErr.Load(); msg != nil {
		o.FirstErr = *msg
	}
	m := o.Metrics
	m["setup_s"] = scalar(setup.Seconds(), 1)
	m["bench.build_s"] = scalar(build.Seconds(), 1)
	m["member.join_converge_ms"] = scalar(ms(converge), 1)
	m["rss_mb"] = scalar(float64(hwm)/(1<<20), numNodes)
	ru.trafficMetrics(m)
	ru.healMetrics(m)
	o.Series = ru.series
	m["csnet.queue_depth_hw"] = scalar(float64(gauges["csnet.server.queue_depth.hw"]), numNodes)
	m["csnet.inflight_hw"] = scalar(float64(gauges["csnet.server.inflight.hw"]), numNodes)
	own, _ := obs.Default().Snapshot().Get("csnet.mux.pending.hw")
	m["csnet.mux_pending_hw"] = scalar(float64(own.Value), 1)
	if traced {
		if err := ru.spanMetrics(m); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// reserveRate is a generous guess at a workload's total ops/s, used
// only to size the raw-sample slices; an underestimate costs a few
// amortised slice growths, never a lost sample.
func reserveRate(wl workload) float64 {
	if wl.readCache > 0 {
		return 600_000
	}
	return 60_000
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// liveNodes are the nodes currently running.
func (ru *run) liveNodes() []*node {
	var out []*node
	for _, n := range ru.rig.nodes {
		if n.cmd != nil {
			out = append(out, n)
		}
	}
	return out
}

// snap reads every cumulative figure. The stats round rides the
// coordinator's own three connections (ClusterStats), so the measured
// system never sees a fourth.
func (ru *run) snap() (totals, error) {
	t := totals{at: time.Now(), ownMallocsFirst: ownMallocs()}
	t.gets, t.sets, _ = ru.gen.counts()
	for _, n := range ru.liveNodes() {
		wb, err := n.writeBytes()
		if err != nil {
			return t, err
		}
		ma, err := n.mallocs()
		if err != nil {
			return t, err
		}
		t.writeBytes += wb
		t.nodeMallocs += ma
	}
	stats, err := ru.cluster.ClusterStats()
	if err != nil && len(ru.liveNodes()) == numNodes {
		// With the victim crashed but not yet marked down, its failed
		// stats round is expected and the others' answers stand.
		return t, err
	}
	t.stats = stats.Merge(obs.Default().Snapshot())
	t.ownMallocsLast = ownMallocs()
	return t, nil
}

// traffic runs n recorded windows as one segment.
func (ru *run) traffic(n int, each time.Duration, traced bool) error {
	ru.tracer.SetEnabled(traced)
	defer ru.tracer.SetEnabled(false)
	before, err := ru.snap()
	if err != nil {
		return err
	}
	ws := ru.gen.run(ru.liveNodes(), n, each, true, ru.window)
	ru.window += n
	after, err := ru.snap()
	if err != nil {
		return err
	}
	ru.segments = append(ru.segments, segment{before: before, after: after, traffic: true, traced: traced, windows: ws})
	if traced {
		return ru.collectSpans()
	}
	return nil
}

// measure: seconds of windows with all three nodes up (the second
// half traced on a -trace 1 run), then healCycles heal cycles, each
// with an unrecorded outage of the same traffic on the two survivors.
func (ru *run) measure(seconds int, traced bool) error {
	n := max(int(time.Duration(seconds)*time.Second/windowLen), 2)
	if traced {
		if err := ru.traffic(n/2, windowLen, false); err != nil {
			return err
		}
		if err := ru.traffic(n-n/2, windowLen, true); err != nil {
			return err
		}
	} else if err := ru.traffic(n, windowLen, false); err != nil {
		return err
	}
	for i := 0; i < healCycles; i++ {
		ru.down()
		before, err := ru.snap()
		if err != nil {
			return err
		}
		ru.gen.run(ru.liveNodes(), 1, ru.wl.outage, false, 0)
		if err := ru.heal(before); err != nil {
			return err
		}
	}
	return nil
}

// down crashes the victim and tells the coordinator detectDelay
// later. Explicit MarkDown stands in for the gossip-driven Watch: the
// benchmark times recovery, not failure detection.
func (ru *run) down() {
	ru.rig.kill(ru.rig.nodes[victim])
	ru.markDown = time.AfterFunc(detectDelay, func() { ru.cluster.MarkDown(victim) })
	ru.gen.trackOutage = true
}

// heal restarts the victim on its data-dir, waits until it serves
// (recover_s), readmits it and runs anti-entropy until the three
// Merkle roots agree (catchup_s), then reads every key written during
// the outage directly from the restarted node.
func (ru *run) heal(before totals) error {
	n := ru.rig.nodes[victim]
	ru.gen.trackOutage = false
	ru.markDown.Stop()
	ru.cluster.MarkDown(victim) // no-op unless the outage was shorter than detectDelay
	var h healResult

	t := time.Now()
	if err := ru.rig.start(n); err != nil {
		return err
	}
	if err := n.waitServing(30 * time.Second); err != nil {
		return err
	}
	h.recover = time.Since(t)

	direct := make([]*csnet.Client, numNodes)
	for i, nd := range ru.rig.nodes {
		cl, err := csnet.Dial(nd.addr, 5*time.Second)
		if err != nil {
			return err
		}
		defer cl.Close()
		direct[i] = cl
	}
	st, err := direct[victim].Stats()
	if err != nil {
		return err
	}
	if hs, ok := st.Get("store.wal.recovery_ns"); ok && hs.Hist != nil {
		h.nodeRecovery = time.Duration(hs.Hist.Sum)
	}
	h.recovered = counterValue(st, "store.wal.recovered_entries") + counterValue(st, "store.wal.recovered_records")

	t = time.Now()
	ru.cluster.MarkUp(victim)
	equal := false
	passes := 0
	for !equal && passes < 10 {
		if _, err := ru.cluster.Rebalance(); err != nil {
			return fmt.Errorf("catch-up pass %d: %w", passes, err)
		}
		passes++
		if equal, err = rootsEqual(direct); err != nil {
			return err
		}
	}
	h.catchup = time.Since(t)
	if !equal {
		ru.extra++
		ru.extraBad++
		ru.gen.fail("merkle roots still differ after %d catch-up passes", passes)
	}

	// Every key Set during the outage, last acked value, on the
	// restarted node itself: hints or anti-entropy must have put it there.
	for _, c := range ru.gen.clients {
		slices.Sort(c.outage)
		for _, k := range slices.Compact(c.outage) {
			ru.extra++
			e, ok, err := direct[victim].GetV(ru.gen.keys[k])
			_, seq, valid := parseValue(e.Value)
			if err != nil || !ok || !valid || seq != ru.gen.acked[k].Load() {
				ru.extraBad++
				ru.gen.fail("after heal, node %d has %s at seq %d (ok=%v err=%v), last acked %d",
					victim, ru.gen.keys[k], seq, ok, err, ru.gen.acked[k].Load())
			}
		}
		c.outage = c.outage[:0]
	}
	after, err := ru.snap()
	if err != nil {
		return err
	}
	ru.heals = append(ru.heals, h)
	ru.segments = append(ru.segments, segment{before: before, after: after})
	return nil
}

func rootsEqual(direct []*csnet.Client) (bool, error) {
	var first uint64
	for i, cl := range direct {
		_, nodes, err := cl.TreeV([]uint32{1})
		if err != nil {
			return false, fmt.Errorf("merkle root of node %d: %w", i, err)
		}
		if len(nodes) != 1 {
			return false, fmt.Errorf("merkle root of node %d: %d hashes", i, len(nodes))
		}
		if i == 0 {
			first = nodes[0].Hash
		} else if nodes[0].Hash != first {
			return false, nil
		}
	}
	return true, nil
}

func (ru *run) nodesHWM() (int64, error) {
	var sum int64
	for _, n := range ru.rig.nodes {
		v, err := n.vmHWM()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// nodeGaugeMax is each scalar metric's maximum over the three nodes.
func (ru *run) nodeGaugeMax() (map[string]int64, error) {
	out := map[string]int64{}
	for _, n := range ru.rig.nodes {
		g, err := n.gauges()
		if err != nil {
			return nil, err
		}
		for k, v := range g {
			out[k] = max(out[k], v)
		}
	}
	return out, nil
}
