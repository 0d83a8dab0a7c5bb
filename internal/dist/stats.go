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

// askLive puts req to every backend not marked down as one pipelined
// burst over the existing multiplexed connections and hands each OK
// reply's body to each. Backends that fail the round trip, answer
// another status, or send a body each rejects are skipped; the error
// reports the first such failure (as "cluster <what> on backend N"),
// alongside whatever the rest of the cluster answered.
func (c *Cluster) askLive(what string, req csnet.Request, each func(body []byte) error) error {
	c.mu.Lock()
	down := append([]bool(nil), c.down...)
	c.mu.Unlock()
	type sent struct {
		call    *csnet.Call
		backend int
	}
	calls := make([]sent, 0, len(c.pools))
	var firstErr error
	noteErr := func(b int, err error) {
		if firstErr == nil {
			firstErr = fmt.Errorf("dist: cluster %s on backend %d: %w", what, b, err)
		}
	}
	for b, p := range c.pools {
		if down[b] {
			continue
		}
		cl, err := p.Client()
		if err != nil {
			noteErr(b, err)
			continue
		}
		calls = append(calls, sent{cl.Send(req), b})
	}
	for _, s := range calls {
		resp, err := s.call.Response()
		if err == nil && resp.Status != csnet.StatusOK {
			err = statusErr(resp)
		}
		if err == nil {
			err = each(resp.Value)
		}
		if err != nil {
			noteErr(s.backend, err)
		}
	}
	return firstErr
}

// ClusterStats fetches and merges the live metrics snapshots of every
// reachable backend: one OpStats round per node (see askLive), folded
// with Snapshot.Merge into cluster-wide totals — counters add,
// histograms add bucketwise, so the merged percentiles are computed
// over the union of every node's samples, not averaged from per-node
// percentiles.
func (c *Cluster) ClusterStats() (obs.Snapshot, error) {
	var merged obs.Snapshot
	err := c.askLive("stats", csnet.Request{Op: csnet.OpStats}, func(body []byte) error {
		snap, err := obs.DecodeSnapshot(body)
		if err == nil {
			merged = merged.Merge(snap)
		}
		return err
	})
	return merged, err
}
