package main

import (
	"slices"
	"time"

	"pdcedu/internal/obs"
)

func counterValue(s obs.Snapshot, name string) int64 {
	m, _ := s.Get(name)
	return m.Value
}

func histogram(s obs.Snapshot, name string) (sum, count uint64) {
	if m, ok := s.Get(name); ok && m.Hist != nil {
		return m.Hist.Sum, m.Hist.Count
	}
	return 0, 0
}

// delta sums a counter's growth over the segments pick accepts.
func (ru *run) delta(name string, pick func(segment) bool) float64 {
	var d int64
	for _, s := range ru.segments {
		if pick(s) {
			d += counterValue(s.after.stats, name) - counterValue(s.before.stats, name)
		}
	}
	return float64(d)
}

// histDelta sums a histogram's growth (value sum, sample count).
func (ru *run) histDelta(name string, pick func(segment) bool) (sum, count float64) {
	for _, s := range ru.segments {
		if pick(s) {
			s1, c1 := histogram(s.after.stats, name)
			s0, c0 := histogram(s.before.stats, name)
			sum += float64(s1) - float64(s0)
			count += float64(c1) - float64(c0)
		}
	}
	return
}

func isTraffic(s segment) bool { return s.traffic }
func anySegment(segment) bool  { return true }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// trafficMetrics fills every metric taken from the recorded traffic:
// per-window rates and costs (median window), raw-sample latencies,
// and counter deltas over the traffic segments.
func (ru *run) trafficMetrics(m map[string]value) {
	var rates, cpuPerOp, nodePerOp, ownPerOp []float64
	var tracedRates, untracedRates []float64 // rates split by whether tracing was on
	var nodeCPU, nodeSys time.Duration
	var ops, sets, mallocs, writeBytes, wall, nodeWall float64
	for _, s := range ru.segments {
		if !s.traffic {
			continue
		}
		for i := 1; i < len(s.windows); i++ {
			a, b := s.windows[i-1], s.windows[i]
			n := float64(b.gets + b.sets - a.gets - a.sets)
			if n == 0 {
				continue
			}
			node := b.nodeUser + b.nodeSys - a.nodeUser - a.nodeSys
			own := b.generatorCPU - a.generatorCPU
			rate := n / b.at.Sub(a.at).Seconds()
			rates = append(rates, rate)
			if s.traced {
				tracedRates = append(tracedRates, rate)
			} else {
				untracedRates = append(untracedRates, rate)
			}
			cpuPerOp = append(cpuPerOp, us(node+own)/n)
			nodePerOp = append(nodePerOp, us(node)/n)
			ownPerOp = append(ownPerOp, us(own)/n)
			nodeCPU += node
			nodeSys += b.nodeSys - a.nodeSys
		}
		d := s.after.at.Sub(s.before.at).Seconds()
		wall += d
		nodeWall += d * float64(s.windows[0].nodes)
		ops += float64(s.after.gets + s.after.sets - s.before.gets - s.before.sets)
		sets += float64(s.after.sets - s.before.sets)
		mallocs += float64(s.after.nodeMallocs-s.before.nodeMallocs) + float64(s.after.ownMallocsFirst-s.before.ownMallocsLast)
		writeBytes += float64(s.after.writeBytes - s.before.writeBytes)
	}
	m["ops_per_s"] = median(rates)
	m["cpu_us_per_op"] = median(cpuPerOp)
	m["node.cpu_us_per_op"] = median(nodePerOp)
	m["client.cpu_us_per_op"] = median(ownPerOp)
	m["node.sys_share"] = scalar(ratio(float64(nodeSys), float64(nodeCPU)), len(rates))
	m["client.window_cv"] = scalar(cv(rates), len(rates))
	m["allocs_per_op"] = scalar(ratio(mallocs, ops), int(ops))
	m["disk_write_amp"] = scalar(ratio(writeBytes, sets*userBytesSet), int(sets))

	getAll, getP50, getP99 := ru.latencies(func(c *client) []uint32 { return c.getNs }, func(k mark) int { return k.gets })
	setAll, setP50, setP99 := ru.latencies(func(c *client) []uint32 { return c.setNs }, func(k mark) int { return k.sets })
	m["get_p50_us"] = scalar(nsQuantile(getAll, 0.5)/1e3, len(getAll))
	m["set_p50_us"] = scalar(nsQuantile(setAll, 0.5)/1e3, len(setAll))
	ru.series = map[string][]float64{
		"ops_per_s": rates, "cpu_us_per_op": cpuPerOp, "get_p50_us": getP50, "set_p50_us": setP50,
		"traced ops_per_s": tracedRates, "untraced ops_per_s": untracedRates,
	}
	m["client.get_p99_us"] = median(getP99)
	m["client.set_p99_us"] = median(setP99)

	d := func(name string) float64 { return ru.delta(name, isTraffic) }
	m["store.wal_bytes_per_set"] = scalar(ratio(d("store.wal.append_bytes"), sets), int(sets))
	m["store.fsyncs_per_s"] = scalar(ratio(d("store.wal.fsyncs"), wall), int(d("store.wal.fsyncs")))
	fsyncNs, fsyncs := ru.histDelta("store.wal.fsync_ns", isTraffic)
	m["store.fsync_busy_pct"] = scalar(100*ratio(fsyncNs, nodeWall*1e9), int(fsyncs))
	snapNs, snaps := ru.histDelta("store.wal.snapshot_ns", isTraffic)
	m["store.snapshots"] = scalar(d("store.wal.snapshots"), int(snaps))
	m["store.snapshot_busy_pct"] = scalar(100*ratio(snapNs, nodeWall*1e9), int(snaps))
	m["csnet.bytes_in_per_op"] = scalar(ratio(d("csnet.server.bytes_in"), ops), int(ops))
	m["csnet.bytes_out_per_op"] = scalar(ratio(d("csnet.server.bytes_out"), ops), int(ops))
	hits, misses := d("dist.cache.hits"), d("dist.cache.misses")
	m["dist.cache_hit_ratio"] = scalar(ratio(hits, hits+misses), int(hits+misses))
	m["dist.cache_invalidations_per_set"] = scalar(ratio(d("dist.cache.invalidations"), sets), int(sets))
	m["dist.cache_evictions"] = scalar(d("dist.cache.evictions"), 1)
}

// latencies merges one op kind's raw samples over all workers into a
// sorted whole, and returns beside it the p99 of every recorded
// window (cut out of each worker's slice by its window marks).
func (ru *run) latencies(samples func(*client) []uint32, at func(mark) int) (all []uint32, p50s, p99s []float64) {
	perWindow := make([][]uint32, ru.window)
	for _, c := range ru.gen.clients {
		s := samples(c)
		all = append(all, s...)
		for i, k := range c.marks {
			end := len(s)
			if i+1 < len(c.marks) {
				end = at(c.marks[i+1])
			}
			perWindow[k.window] = append(perWindow[k.window], s[at(k):end]...)
		}
	}
	slices.Sort(all)
	for _, w := range perWindow {
		if len(w) == 0 {
			continue
		}
		slices.Sort(w)
		p50s = append(p50s, nsQuantile(w, 0.5)/1e3)
		p99s = append(p99s, nsQuantile(w, 0.99)/1e3)
	}
	return all, p50s, p99s
}

// healMetrics fills the metrics of the kill / restart / catch-up
// cycles, and the coordinator's repair counters over the whole run
// (hints queue during outage traffic and replay during catch-up, so
// no single kind of segment holds them all).
func (ru *run) healMetrics(m map[string]value) {
	var rec, catch, nodeRec, records, overhead []float64
	for _, h := range ru.heals {
		rec = append(rec, h.recover.Seconds())
		catch = append(catch, h.catchup.Seconds())
		nodeRec = append(nodeRec, ms(h.nodeRecovery))
		records = append(records, float64(h.recovered))
		overhead = append(overhead, ms(h.recover-h.nodeRecovery))
	}
	m["recover_s"] = median(rec)
	m["catchup_s"] = median(catch)
	m["store.recovery_ms"] = median(nodeRec)
	m["store.recovered_records"] = median(records)
	m["node.start_overhead_ms"] = median(overhead)

	d := func(name string) float64 { return ru.delta(name, anySegment) }
	m["csnet.mux_timeouts"] = scalar(d("csnet.mux.timeouts"), 1)
	m["csnet.shed"] = scalar(d("csnet.server.shed"), 1)
	m["dist.read_repairs"] = scalar(d("dist.read_repairs"), 1)
	m["dist.partial_writes"] = scalar(d("dist.partial_writes"), 1)
	m["dist.hints_queued"] = scalar(d("dist.hints.queued"), len(ru.heals))
	m["dist.hints_replayed"] = scalar(d("dist.hints.replayed"), len(ru.heals))
	m["dist.ae_digest_frames"] = scalar(d("dist.antientropy.digest_frames"), len(ru.heals))
	m["dist.ae_keys_streamed"] = scalar(d("dist.antientropy.streamed"), len(ru.heals))
	passNs, passes := ru.histDelta("dist.antientropy.pass_latency", anySegment)
	m["dist.ae_pass_ms"] = scalar(ratio(passNs, passes)/1e6, int(passes))
}
