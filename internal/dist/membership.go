package dist

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"pdcedu/internal/member"
	"pdcedu/internal/store"
	"pdcedu/internal/trace"
)

// PartialWriteError reports a replicated write that reached fewer live
// replicas than the write quorum. It lists exactly which backends
// acknowledged, which had hints queued for later replay, and why the
// others failed, so a caller can distinguish "durable on a minority,
// retry later" from "rejected outright".
type PartialWriteError struct {
	// Op is the cluster operation ("set" or "mset").
	Op string
	// Key is the key that missed quorum (for MSet, the first such key).
	Key string
	// Replicas is the key's live replica set at write time.
	Replicas []int
	// Acked lists the backends that acknowledged the write.
	Acked []int
	// Hinted lists the backends that were unreachable and had the write
	// queued as a hint for replay when they rejoin.
	Hinted []int
	// Quorum is the number of acks the write needed.
	Quorum int
	// MissedKeys is how many keys of an MSet missed quorum (1 for Set).
	MissedKeys int
	// Causes maps each failed backend to its error.
	Causes map[int]error
}

// Unwrap exposes the per-backend causes, so errors.Is and errors.As
// see through a partial write to what actually failed — in particular
// errors.Is(err, csnet.ErrBusy) identifies a write that missed quorum
// because replicas shed it under admission control, which is worth a
// backoff-and-retry where a hard rejection is not.
func (e *PartialWriteError) Unwrap() []error {
	if len(e.Causes) == 0 {
		return nil
	}
	errs := make([]error, 0, len(e.Causes))
	for _, err := range e.Causes {
		errs = append(errs, err)
	}
	return errs
}

// Error implements error.
func (e *PartialWriteError) Error() string {
	if len(e.Replicas) == 0 {
		return noLiveErr(e.Op, e.Key).Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "dist: cluster %s %q: %d/%d acks (quorum %d)",
		e.Op, e.Key, len(e.Acked), len(e.Replicas), e.Quorum)
	if e.MissedKeys > 1 {
		fmt.Fprintf(&b, "; %d keys under quorum", e.MissedKeys)
	}
	if len(e.Hinted) > 0 {
		fmt.Fprintf(&b, "; hinted %v", e.Hinted)
	}
	if len(e.Causes) > 0 {
		backends := make([]int, 0, len(e.Causes))
		for n := range e.Causes {
			backends = append(backends, n)
		}
		sort.Ints(backends)
		for _, n := range backends {
			fmt.Fprintf(&b, "; backend %d: %v", n, e.Causes[n])
		}
	}
	return b.String()
}

// maxHintsPerNode caps each down backend's hint queue: past it, new
// hints for keys not already queued are dropped (counted as
// dist.hints.dropped) and the rebalancer is left to converge the
// backend when it returns.
// A dropped hint is safe only while the survivors still hold the entry
// it carried: the rebalancer streams the newer value or tombstone to
// the rejoined backend, and a stale copy cannot win its merge. A
// dropped delete whose tombstone the survivors have already swept
// (-tombstone-gc) is not: the rejoined backend's stale value is then
// the newest copy, and the rebalancer resurrects it (ROADMAP.md, "An
// acked delete never resurrects").
const maxHintsPerNode = 8192

// hintEntry is one queued write awaiting replay: the newest value (or
// tombstone) the unreachable backend missed, carrying the version the
// coordinator stamped so the replay merges exactly as the original
// write would have.
type hintEntry struct {
	e  store.Entry   // value or tombstone
	tr trace.Context // trace of the write that queued the hint, so the replay joins it
}

// hintLocked queues e for backend b under key, superseding a queued
// hint for the same key only when e is at least as new — the queue
// holds the newest missed operation per key and can never be
// downgraded by an older write's failure arriving late. Caller holds
// c.mu.
func (c *Cluster) hintLocked(b int, key string, e hintEntry) {
	if c.hints[b] == nil {
		c.hints[b] = map[string]hintEntry{}
	}
	cur, queued := c.hints[b][key]
	if !queued && len(c.hints[b]) >= maxHintsPerNode {
		distM.hintsDropped.Inc()
		return
	}
	if queued && cur.e.Version > e.e.Version {
		return
	}
	if !queued {
		distM.hintsQueued.Inc()
	}
	c.hints[b][key] = e
}

// hint queues key's latest operation for backend b. Enqueueing is a
// write-path event the read cache must see: the hinted version
// supersedes anything older the cache holds (a caller that later gets
// quorum confirmation re-installs the servable entry at this same
// version, replacing the floor).
func (c *Cluster) hint(b int, key string, e hintEntry) {
	c.cacheSupersede(key, e.e.Version)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hintLocked(b, key, e)
}

// hintIfAbsent requeues a hint that failed to replay, unless a newer
// hint for the key was queued in the meantime (hintLocked's version
// guard makes requeueing an older one a no-op anyway).
func (c *Cluster) hintIfAbsent(b int, key string, e hintEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, queued := c.hints[b][key]; queued {
		return
	}
	c.hintLocked(b, key, e)
}

// Hints reports how many hinted writes are queued for backend b.
func (c *Cluster) Hints(b int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.hints[b])
}

// replayHints delivers backend b's queued hints as one burst of
// version-aware merges (values and tombstones alike) and returns
// how many landed. A replay that finds the backend already newer
// (StatusExists) is success — the hint is obsolete, exactly the stale
// replay that used to need careful ordering and now simply loses.
// Hints that fail on transport are requeued (unless a newer hint for
// the key arrived meanwhile).
func (c *Cluster) replayHints(b int) int {
	c.mu.Lock()
	pending := c.hints[b]
	c.hints[b] = nil
	c.mu.Unlock()
	if len(pending) == 0 {
		return 0
	}
	// A hint carries the trace of the write that queued it; the replay
	// merge joins that trace as a hint span, so a waterfall shows the
	// write completing on the recovered backend.
	mb := mergeBurst{c: c, kind: trace.KindHint}
	sent := make([]string, 0, len(pending))
	for k, h := range pending {
		mb.send(h.tr, b, k, h.e)
		sent = append(sent, k)
	}
	delivered := 0
	mb.collect(func(_, i int, resident uint64, err error) {
		k := sent[i]
		if err != nil {
			c.hintIfAbsent(b, k, pending[k])
			return
		}
		// An Exists reply reports a resident newer than the hint the
		// send already superseded the cache at: supersede there too.
		c.cacheSupersede(k, resident)
		delivered++
	})
	if delivered > 0 {
		distM.hintsReplayed.Add(uint64(delivered))
	}
	return delivered
}

// MarkDown takes backend b out of placement: it sets b's down bit and
// publishes the route that results, so subsequent reads and writes pass
// it by (each of its buckets to the next live node clockwise on the
// fixed ring), and schedules a rebalance so the shrunken replica sets
// regain full replication. It reports whether the backend transitioned
// (false when already down or out of range). Watch calls this on dead
// events; tests and operators may call it directly.
func (c *Cluster) MarkDown(b int) bool {
	if !c.setDown(b, true) {
		return false
	}
	c.kickRebalance()
	return true
}

// MarkUp readmits backend b after it recovers: queued hints are
// replayed, b's down bit is cleared and the route republished — b's
// virtual nodes never left the ring, so exactly the buckets that moved
// away at MarkDown move back — then the hints that raced the flip are
// drained, and a background rebalance is scheduled to stream
// everything the hints missed — values written and keys deleted during
// the outage — over b's stale copies, and to purge the copies the
// stand-ins took for b's buckets once b holds them. None of the replay ordering is
// correctness-critical anymore: every path is a version-aware merge,
// so a stale hint racing a rebalanced copy just loses by version; the
// replay-before-republish order survives only because it gets data
// onto b before reads route to it.
//
// Known window: between the republish and the rebalance pass finishing,
// a read served by b can still see a pre-outage copy (a value since
// overwritten, or a key since deleted). The converge is deliberately
// asynchronous — a Memberlist Watch delivers events on one goroutine,
// and stalling it on a full rebalance would delay or drop later
// Dead/Alive transitions, which is worse than a brief stale window.
// Callers that need a converged cluster at a known point (tests,
// operators) call Rebalance directly; closing the window for ordinary
// reads is the ROADMAP "quorum reads" item. It reports whether the
// backend transitioned.
func (c *Cluster) MarkUp(b int) bool {
	if !c.IsDown(b) {
		return false
	}
	c.replayHints(b)
	if !c.setDown(b, false) {
		return false
	}
	c.replayHints(b)
	c.kickRebalance()
	return true
}

// IsDown reports whether backend b is currently marked down.
func (c *Cluster) IsDown(b int) bool {
	return b >= 0 && b < len(c.pools) && c.route.Load().down[b]
}

// Live reports how many backends are not marked down.
func (c *Cluster) Live() int { return c.route.Load().live }

// Watch subscribes the cluster to a Memberlist whose member IDs are
// this cluster's backend addresses: dead members are marked down,
// members that come back alive are marked up (hints
// replayed, rebalance scheduled). Suspect is deliberately ignored — a
// suspect node keeps serving until the suspicion timeout expires, so a
// transient hiccup never reshuffles placement. The Memberlist should be
// one that participates in the cluster (e.g. a co-located node's list);
// events about unknown IDs are ignored. The returned stop function ends
// the watch.
func (c *Cluster) Watch(ml *member.Memberlist) (stop func()) {
	events := ml.Subscribe()
	done := make(chan struct{})
	var once sync.Once
	go func() {
		for {
			select {
			case <-done:
				return
			case ev := <-events:
				b, known := c.addrIdx[ev.ID]
				if !known {
					continue
				}
				switch ev.State {
				case member.StateDead:
					c.MarkDown(b)
				case member.StateAlive:
					c.MarkUp(b)
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// kickRebalance schedules a background Rebalance; coalesces with one
// already pending.
func (c *Cluster) kickRebalance() {
	select {
	case c.rebalance <- struct{}{}:
	default:
	}
}

// rebalanceLoop runs scheduled rebalances until Close.
func (c *Cluster) rebalanceLoop() {
	defer close(c.rebalanceDone)
	for {
		select {
		case <-c.stop:
			return
		case <-c.rebalance:
			_, _ = c.Rebalance()
		}
	}
}
