package dist

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/obs"
	"pdcedu/internal/store"
	"pdcedu/internal/trace"
)

// ClusterConfig configures a Cluster.
type ClusterConfig struct {
	// Addrs are the backend csnet.Server addresses (at least one).
	Addrs []string
	// Replication is the number of backends each key is written to
	// (default 1, capped at len(Addrs)).
	Replication int
	// Timeout bounds each backend round-trip (default 5s).
	Timeout time.Duration
	// WriteQuorum is how many replica acks a Set/MSet needs to succeed
	// (default a majority of Replication, clamped to [1, Replication]).
	// Set it to Replication to restore strict write-all semantics.
	WriteQuorum int
	// Buckets is the Merkle bucket count placement and anti-entropy
	// agree on (rounded up to a power of two; default
	// store.DefaultMerkleBuckets). It must match the backends' engine
	// MerkleBuckets — the digest exchange carries the geometry, and
	// Rebalance leaves a backend that differs out of the pass with an
	// error naming both.
	Buckets int
	// Tracer records the coordinator's spans and originates trace
	// contexts for cluster operations (nil = trace.Default()). Enable
	// and sample it to trace: while it is disabled — the default —
	// every op runs untraced at one extra atomic load, and request
	// frames stay byte-identical.
	Tracer *trace.Recorder
	// ReadCache bounds the coordinator's hot-key read cache in entries
	// (0, the default, disables it). Quorum-read wins and quorum-write
	// successes populate it; every write path the coordinator sees
	// invalidates by version. See readCache for the coherence contract.
	ReadCache int
}

// Cluster shards one key space across several csnet backend servers: a
// fixed consistent-hash ring places each key's Merkle bucket (so every
// key in a bucket shares one replica set — the granularity anti-entropy
// digests compare) on its Replication first distinct ring successors
// that are not marked down, writes go synchronously to that set, and reads
// ask the primary first, walking the rest of the set in ring order
// with read-repair backfilling replicas that missed a write.
//
// Transport: one pipelined, multiplexed connection per backend, shared
// by all concurrent callers; fan-out sends, then collects, so a
// replicated write costs one round trip. A multi-key write is one
// frame per backend each way, not one per key (csnet.Batch; a second
// frame past 64 KiB). MGet's GETVs to their primaries travel the same
// way: a read's value is copied out of the reply, which goes back to
// the transport, so one shared reply pins nothing.
//
// Versioning: every write is stamped by the cluster's hybrid logical
// clock and applied on each replica with last-writer-wins merge
// (csnet.OpSetV/OpDelV/OpMerge over a versioned store.Sharded), so no
// replay path — read-repair, hinted handoff, the rebalancer — can ever
// overwrite a newer value with an older one, regardless of delivery
// order. Deletes are tombstones and propagate through the same merge,
// which is what lets the rebalancer converge a rejoined replica
// correctly even when its hints were dropped.
//
// Write path: Set, MSet, Del and MDel are one fan-out (replicate) that
// treats every replica reply, and then the read cache, by one rule:
//
//	replica reply                    ack  hint  cause
//	transport error, no connection   no   yes   yes
//	rejected (Busy, Err, …)          no   no    yes   a replay would be rejected again
//	OK                               yes  —     —
//	Exists (replica holds newer)     yes  —     —     the clock observes the newer version
//	NotFound (deletes only)          yes  —     —
//
//	verdict for the key              read cache
//	did not settle                   superseded at the write's version (its fate is open)
//	settled, a replica held newer    superseded at that version (the winner was never seen)
//	settled                          the written value or tombstone is installed
//
// A set settles on a write quorum of acks and reports a
// *PartialWriteError below it; a delete settles only when every live
// replica acked and reports the first cause otherwise; with no live
// replica nothing settles. Hints, read-repair and anti-entropy push
// entries through one merge burst (mergeBurst). A batch
// frame refused whole (shed, or "unknown op" from an older build) is
// "rejected" for each entry; a reply's missing tail, "transport error".
//
// Fault tolerance: Watch subscribes the cluster to a member.Memberlist
// so dead backends are marked down (their keys reroute to the next live
// nodes on the ring) and recovered ones are marked up again; the down
// set and the placement it implies are one published route, changed
// only by MarkDown and MarkUp. Writes that fail on an unreachable
// replica are queued as hints (latest version per key) and replayed
// when the replica rejoins; a background Merkle anti-entropy pass
// compares replica digests and streams exactly the diverged entries —
// missing, stale, value-split, or tombstoned — to their current owners
// after every membership change, then purges the copies backends hold
// in buckets they no longer own. See MarkDown, MarkUp, Rebalance, and
// PartialWriteError.
type Cluster struct {
	ring    *ConsistentHash // fixed placement; the route says who is down
	clock   *store.Clock    // stamps write versions, observes read versions
	tracer  *trace.Recorder
	cache   *readCache // hot-key read cache; nil when disabled
	rf      int
	quorum  int
	pools   []*csnet.Peer // one connection per backend
	addrIdx map[string]int
	// Placement is bucket-granular: a key maps to its Merkle bucket
	// (store.BucketOf) and the bucket — not the key — is what the ring
	// places. Every key in a bucket therefore shares one replica set,
	// which is what makes two replicas' bucket hashes comparable: when
	// they disagree, the bucket has genuinely diverged, not merely been
	// sliced differently by per-key placement.
	buckets    int
	bucketKeys []string // precomputed ring keys, one per bucket
	// route is the cluster's one membership state: MarkDown and MarkUp
	// publish a new one under routeMu, and every reader loads one
	// snapshot, so the down set and the owners table it implies are
	// never seen apart.
	route   atomic.Pointer[route]
	routeMu sync.Mutex // serializes membership transitions

	mu    sync.Mutex             // guards hints
	hints []map[string]hintEntry // per-backend pending hinted operations

	rebalanceMu   sync.Mutex // serializes Rebalance passes
	rebalance     chan struct{}
	stop          chan struct{}
	rebalanceDone chan struct{}
	closeOnce     sync.Once

	// aeWidth is the bytes a listed bucket costs: the widest any
	// listing reply has shown, carried from pass to pass so that only
	// the cluster's first pass lists unsized (listDivergent).
	aeWidth atomic.Int64
}

// route is one membership state and the placement it implies, built
// whole and never modified once published: the per-op path is a hash
// and an index into owners — no lock, no ring walk, no allocation.
type route struct {
	owners [][]int // per bucket: its live replica set, primary first
	down   []bool  // per backend: marked down
	live   int     // backends not down
}

// newRoute builds the route for the down set, which it keeps. Every
// owners row is a piece of one backing array, capped at its own length.
func (c *Cluster) newRoute(down []bool) *route {
	r := &route{owners: make([][]int, c.buckets), down: down, live: len(down)}
	for _, d := range down {
		if d {
			r.live--
		}
	}
	rows := make([]int, 0, c.buckets*c.rf)
	for b := range r.owners {
		at := len(rows)
		if rows = c.ring.appendPickN(rows, c.bucketKeys[b], c.rf, down); len(rows) > at {
			r.owners[b] = rows[at:len(rows):len(rows)]
		}
	}
	return r
}

// setDown sets backend b's down bit and publishes the route that
// results, reporting whether the bit changed.
func (c *Cluster) setDown(b int, down bool) bool {
	if b < 0 || b >= len(c.pools) {
		return false
	}
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	cur := c.route.Load()
	if cur.down[b] == down {
		return false
	}
	next := slices.Clone(cur.down)
	next[b] = down
	c.route.Store(c.newRoute(next))
	return true
}

// NewCluster connects a cluster router to the configured backends.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	n := len(cfg.Addrs)
	if n == 0 {
		return nil, errors.New("dist: cluster needs at least one backend address")
	}
	rf := cfg.Replication
	if rf < 1 {
		rf = 1
	}
	if rf > n {
		rf = n
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	quorum := cfg.WriteQuorum
	if quorum <= 0 {
		quorum = rf/2 + 1
	}
	if quorum > rf {
		quorum = rf
	}
	buckets := cfg.Buckets
	if buckets <= 0 {
		buckets = store.DefaultMerkleBuckets
	}
	pow := 1
	for pow < buckets {
		pow <<= 1
	}
	buckets = pow
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = trace.Default()
	}
	c := &Cluster{
		ring:          NewConsistentHash(n, 64),
		clock:         store.NewClock(),
		tracer:        tracer,
		cache:         newReadCache(cfg.ReadCache),
		rf:            rf,
		quorum:        quorum,
		pools:         make([]*csnet.Peer, n),
		addrIdx:       make(map[string]int, n),
		buckets:       buckets,
		bucketKeys:    make([]string, buckets),
		hints:         make([]map[string]hintEntry, n),
		rebalance:     make(chan struct{}, 1),
		stop:          make(chan struct{}),
		rebalanceDone: make(chan struct{}),
	}
	for b := range c.bucketKeys {
		c.bucketKeys[b] = fmt.Sprintf("bucket-%d", b)
	}
	for i, addr := range cfg.Addrs {
		c.pools[i] = csnet.NewPeer(addr, timeout)
		c.addrIdx[addr] = i
	}
	c.route.Store(c.newRoute(make([]bool, n)))
	go c.rebalanceLoop()
	return c, nil
}

// replicaSet returns the live backends holding key: the first rf
// distinct live nodes clockwise from the key's *bucket's* ring position
// (placement is bucket-granular; see the Cluster doc), so the set
// shrinks below rf only when fewer than rf backends are live.
func (c *Cluster) replicaSet(key string) []int {
	return c.ownersOf(store.BucketOf(key, c.buckets))
}

// ownersOf returns the live replica set of one Merkle bucket. The
// slice is shared by every caller: index it, never write to it.
func (c *Cluster) ownersOf(bucket int) []int {
	return c.route.Load().owners[bucket]
}

// ReplicaSet reports the live backends currently owning key, primary
// first — the placement every read, write, and anti-entropy pass
// uses. Demos and operators use it to check replication coverage
// against the cluster's actual geometry. The slice is the routing
// table's own row: read it, do not modify it.
func (c *Cluster) ReplicaSet(key string) []int { return c.replicaSet(key) }

// startOp opens a new trace plus its root span for one operation —
// trace.KindOp for a public cluster op, trace.KindAE for a
// self-originated anti-entropy pass, so a slow-pass waterfall reads as
// "antientropy" rather than a client op. It returns the propagation
// context (root as parent) and the root span to Finish. With tracing
// disabled both are inert and the whole detour is one atomic load.
func (c *Cluster) startOp(kind trace.Kind, op string) (trace.Context, trace.Active) {
	ctx := c.tracer.NewTrace()
	if !ctx.Valid() {
		return ctx, trace.Active{}
	}
	root := c.tracer.StartSpan(ctx, kind, op)
	return root.Context(), root
}

// span opens the coordinator-side span for one backend call; the
// returned span's Context goes onto the request so the backend's
// server span hangs off this hop.
func (c *Cluster) span(ctx trace.Context, kind trace.Kind, op string, backend int) trace.Active {
	sp := c.tracer.StartSpan(ctx, kind, op)
	if sp.Live() {
		sp.S.Peer = c.pools[backend].Addr()
	}
	return sp
}

// quorumFor is the ack count a write to a set of n live replicas needs:
// the configured quorum, degraded to n when fewer than quorum replicas
// are live (so a minority partition keeps accepting writes rather than
// rejecting everything; the rebalancer restores full replication when
// nodes return).
func (c *Cluster) quorumFor(n int) int {
	q := c.quorum
	if q > n {
		q = n
	}
	if q < 1 {
		q = 1
	}
	return q
}

// statusErr converts a backend rejection into a cause error,
// preserving the busy type: a StatusBusy reply wraps csnet.ErrBusy so
// errors.Is(err, csnet.ErrBusy) — including through a
// PartialWriteError's causes — identifies shed writes as retryable.
func statusErr(resp csnet.Response) error {
	if resp.Status == csnet.StatusBusy {
		return fmt.Errorf("status %s: %w", resp.Status, csnet.ErrBusy)
	}
	return fmt.Errorf("status %s: %s", resp.Status, resp.Value)
}

// cacheSupersede invalidates the read cache at ver, counting only
// calls that actually changed a slot.
func (c *Cluster) cacheSupersede(key string, ver uint64) {
	if c.cache.supersede(key, ver) {
		distM.cacheInval.Inc()
	}
}

// noLiveErr is what every op reports for a key whose replica set is
// empty: every backend is marked down.
func noLiveErr(op, key string) error {
	return fmt.Errorf("dist: cluster %s %q: no live backends", op, key)
}

// Set writes key to every live replica synchronously: the coordinator
// stamps one clock version and the sends are pipelined onto each
// replica's multiplexed connection as versioned merges (OpSetV) and
// then collected, so latency stays near one round-trip regardless of
// the replication factor. Every replica converges on the same (value,
// version); concurrent Sets of the same key from any number of
// coordinators resolve last-writer-wins by version on every replica
// identically. It succeeds once a quorum of the live replica set
// acknowledges and otherwise returns a *PartialWriteError naming the
// replicas that did; the Cluster doc has the per-reply rules. For a
// replica the write could not reach, the hint queue keeps value until
// the hint is replayed, so do not modify value after the call.
func (c *Cluster) Set(key string, value []byte) error {
	defer distM.latSet.ObserveSince(obs.StartTimer())
	muts := [1]mutation{{key, store.Entry{Value: value, Version: c.clock.Next()}}}
	var out [1]outcome
	return c.writeSets("set", muts[:], out[:])
}

// MSet writes many key/value pairs with replicated quorum writes: each
// backend receives its whole share as one batch frame and answers it
// with one, so a key costs its encoding and its engine write, not a
// frame each way per replica. Per key the semantics match Set, and when any
// key misses quorum the whole batch returns one *PartialWriteError
// carrying the first such key's detail plus the total count of
// under-quorum keys (every other key's writes still complete and
// remain durable). As with Set, do not modify values after the call.
func (c *Cluster) MSet(keys []string, values [][]byte) error {
	defer distM.latMSet.ObserveSince(obs.StartTimer())
	if len(keys) != len(values) {
		return fmt.Errorf("dist: cluster mset: %d keys but %d values", len(keys), len(values))
	}
	muts := make([]mutation, len(keys))
	for i, key := range keys {
		muts[i] = mutation{key, store.Entry{Value: values[i], Version: c.clock.Next()}}
	}
	return c.writeSets("mset", muts, make([]outcome, len(keys)))
}

// writeSets replicates value mutations under one root span and applies
// what only sets have: the quorum verdict, as a *PartialWriteError for
// the first key that missed it, counting the rest.
func (c *Cluster) writeSets(op string, muts []mutation, out []outcome) error {
	ctx, root := c.startOp(trace.KindOp, op)
	c.replicate(ctx, muts, out)
	var pe *PartialWriteError
	for i := range out {
		if out[i].settled() {
			continue
		}
		if pe == nil {
			pe = out[i].partial(op, muts[i].key)
		}
		pe.MissedKeys++
	}
	root.S.Err = pe != nil
	root.Finish()
	if pe == nil {
		return nil
	}
	distM.partialWrites.Inc()
	distM.quorumShort.Add(uint64(pe.MissedKeys))
	return pe
}

// Del removes key from every live replica by writing a version-stamped
// tombstone (OpDelV), fanned out like Set; ok reports whether any
// replica had a live copy. The tombstone is what makes the delete
// durable against recovery: a replica that missed it converges through
// hint replay or the rebalancer's tombstone streaming, and a stale
// copy can never win the merge against it. A delete that did not reach
// its whole live replica set returns the first replica's cause.
func (c *Cluster) Del(key string) (ok bool, err error) {
	defer distM.latDel.ObserveSince(obs.StartTimer())
	muts := [1]mutation{{key, store.Entry{Version: c.clock.Next(), Tombstone: true}}}
	var out [1]outcome
	n, err := c.writeDels("del", muts[:], out[:])
	return n > 0, err
}

// MDel removes many keys from their live replica sets with version-
// stamped tombstones, one batch frame per backend (see Del and MSet).
// It returns how many keys existed on at least one replica.
func (c *Cluster) MDel(keys []string) (int, error) {
	defer distM.latMDel.ObserveSince(obs.StartTimer())
	muts := make([]mutation, len(keys))
	for i, key := range keys {
		muts[i] = mutation{key, store.Entry{Version: c.clock.Next(), Tombstone: true}}
	}
	return c.writeDels("mdel", muts, make([]outcome, len(keys)))
}

// writeDels replicates tombstones under one root span and applies what
// only deletes have: the count of keys that existed, and the first
// failure of any key that did not reach its whole replica set.
func (c *Cluster) writeDels(op string, muts []mutation, out []outcome) (existed int, err error) {
	ctx, root := c.startOp(trace.KindOp, op)
	c.replicate(ctx, muts, out)
	for i := range out {
		if out[i].existed {
			existed++
		}
		if err == nil && !out[i].settled() {
			err = out[i].failure(op, muts[i].key)
		}
	}
	root.S.Err = err != nil
	root.Finish()
	return existed, err
}

// Close stops the background rebalancer and releases every backend
// connection. Safe to call more than once.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		close(c.stop)
	})
	<-c.rebalanceDone // a rebalance pass in flight finishes first
	for _, p := range c.pools {
		p.Close()
	}
	return nil
}
