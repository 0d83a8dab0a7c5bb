package dist

import (
	"fmt"

	"pdcedu/internal/csnet"
	"pdcedu/internal/obs"
)

// Coordinator-layer metric names:
//
//	dist.op_latency.<OP>            histogram: whole-op coordinator latency, ns
//	                                (set, get, del, mset, mget, mdel)
//	dist.read_repairs               counter: repair merges pushed to replicas
//	dist.hints.queued               counter: writes queued for a down replica
//	dist.hints.replayed             counter: hints delivered on rejoin
//	dist.hints.dropped              counter: hints lost to the per-backend cap
//	dist.partial_writes             counter: writes returning PartialWriteError
//	dist.quorum_shortfall           counter: keys that missed quorum (MissedKeys)
//	dist.cache.hits                 counter: reads served from the coordinator cache
//	dist.cache.misses               counter: cache-enabled reads that went to replicas
//	dist.cache.invalidations        counter: entries superseded by a write-path event
//	dist.cache.evictions            counter: entries dropped by LRU capacity
//	dist.antientropy.passes         counter: Rebalance passes
//	dist.antientropy.streamed       counter: entries streamed by repair plans
//	dist.antientropy.purged         counter: non-owner copies removed
//	                                (OpPurgeV replies StatusOK)
//	dist.antientropy.digest_frames  counter: OpTreeV exchanges
//	dist.antientropy.listing_frames counter: OpRangeV exchanges
//	dist.antientropy.keys_listed    counter: entries carried by those listings
//	dist.antientropy.pass_latency   histogram: whole Rebalance pass cost, ns
type distMetrics struct {
	latSet  *obs.Histogram
	latGet  *obs.Histogram
	latDel  *obs.Histogram
	latMSet *obs.Histogram
	latMGet *obs.Histogram
	latMDel *obs.Histogram

	readRepairs   *obs.Counter
	hintsQueued   *obs.Counter
	hintsReplayed *obs.Counter
	hintsDropped  *obs.Counter
	partialWrites *obs.Counter
	quorumShort   *obs.Counter

	cacheHits  *obs.Counter
	cacheMiss  *obs.Counter
	cacheInval *obs.Counter
	cacheEvict *obs.Counter

	aePasses        *obs.Counter
	aeStreamed      *obs.Counter
	aePurged        *obs.Counter
	aeDigestFrames  *obs.Counter
	aeListingFrames *obs.Counter
	aeKeysListed    *obs.Counter
	aePassLatency   *obs.Histogram
}

// distM resolves the coordinator's metric pointers once; the op paths
// record through them directly (see obs package doc).
var distM = func() *distMetrics {
	r := obs.Default()
	return &distMetrics{
		latSet:          r.Histogram("dist.op_latency.set"),
		latGet:          r.Histogram("dist.op_latency.get"),
		latDel:          r.Histogram("dist.op_latency.del"),
		latMSet:         r.Histogram("dist.op_latency.mset"),
		latMGet:         r.Histogram("dist.op_latency.mget"),
		latMDel:         r.Histogram("dist.op_latency.mdel"),
		readRepairs:     r.Counter("dist.read_repairs"),
		hintsQueued:     r.Counter("dist.hints.queued"),
		hintsReplayed:   r.Counter("dist.hints.replayed"),
		hintsDropped:    r.Counter("dist.hints.dropped"),
		partialWrites:   r.Counter("dist.partial_writes"),
		quorumShort:     r.Counter("dist.quorum_shortfall"),
		cacheHits:       r.Counter("dist.cache.hits"),
		cacheMiss:       r.Counter("dist.cache.misses"),
		cacheInval:      r.Counter("dist.cache.invalidations"),
		cacheEvict:      r.Counter("dist.cache.evictions"),
		aePasses:        r.Counter("dist.antientropy.passes"),
		aeStreamed:      r.Counter("dist.antientropy.streamed"),
		aePurged:        r.Counter("dist.antientropy.purged"),
		aeDigestFrames:  r.Counter("dist.antientropy.digest_frames"),
		aeListingFrames: r.Counter("dist.antientropy.listing_frames"),
		aeKeysListed:    r.Counter("dist.antientropy.keys_listed"),
		aePassLatency:   r.Histogram("dist.antientropy.pass_latency"),
	}
}()

// ClusterStats fetches and merges the live metrics snapshots of every
// backend not marked down: one pipelined OpStats round per node over
// the existing multiplexed connections, folded with Snapshot.Merge
// into cluster-wide totals — counters add, histograms add bucketwise,
// so the merged percentiles are computed over the union of every
// node's samples, not averaged from per-node percentiles. A backend
// that fails the round trip, answers another status or sends an
// undecodable snapshot is left out; the error reports the first such
// failure (as "cluster stats on backend N"), alongside what the rest of
// the cluster answered.
func (c *Cluster) ClusterStats() (obs.Snapshot, error) {
	type sent struct {
		call    *csnet.Call
		backend int
	}
	calls := make([]sent, 0, len(c.pools))
	var merged obs.Snapshot
	var firstErr error
	noteErr := func(b int, err error) {
		if firstErr == nil {
			firstErr = fmt.Errorf("dist: cluster stats on backend %d: %w", b, err)
		}
	}
	down := c.route.Load().down
	for b, p := range c.pools {
		if down[b] {
			continue
		}
		cl, err := p.Client()
		if err != nil {
			noteErr(b, err)
			continue
		}
		calls = append(calls, sent{cl.Send(csnet.Request{Op: csnet.OpStats}), b})
	}
	for _, s := range calls {
		resp, err := s.call.Response()
		if err == nil && resp.Status != csnet.StatusOK {
			err = statusErr(resp)
		}
		var snap obs.Snapshot
		if err == nil {
			snap, err = obs.DecodeSnapshot(resp.Value)
		}
		if err != nil {
			noteErr(s.backend, err)
			continue
		}
		merged = merged.Merge(snap)
	}
	return merged, firstErr
}
