package dist

import (
	"bytes"
	"fmt"

	"pdcedu/internal/csnet"
	"pdcedu/internal/obs"
	"pdcedu/internal/store"
	"pdcedu/internal/trace"
)

// cached consults the read cache for key and books the hit or the
// miss. A returned entry is servable: a live value, or a tombstone to
// report as a definitive miss.
func (c *Cluster) cached(key string) (store.Entry, bool) {
	if c.cache == nil {
		return store.Entry{}, false
	}
	if e, hit := c.cache.get(key); hit {
		distM.cacheHits.Inc()
		return e, true
	}
	distM.cacheMiss.Inc()
	return store.Entry{}, false
}

// Get reads key from its replica set with versioned reads (OpGetV),
// asking the primary first; on a miss the remaining replicas are
// consulted in ring order, and when a later replica has the value,
// read-repair merges it back to every replica that missed. A replica
// that misses because it holds a tombstone reports the tombstone's
// version: if that tombstone is newer than the value another replica
// returns, the key is deleted — Get reports a miss and propagates the
// tombstone to the stale holder instead of resurrecting the value. A
// (nil, false, nil) return means no replica has a live copy. Get is
// the one-key case of fetch, the read path MGet shares.
//
// With a read cache configured (ClusterConfig.ReadCache) a servable
// cached entry — a live value, or a cached tombstone reported as a
// definitive miss — short-circuits the replica round entirely; reads
// that do go to the replicas populate the cache with what they learn
// (the winning entry, or the newest tombstone seen). A cached value
// may be stale until the next write, repair or supersede of its key
// that this coordinator sees (readCache has the contract). The
// returned value is the caller's, cached or not.
func (c *Cluster) Get(key string) (value []byte, ok bool, err error) {
	defer distM.latGet.ObserveSince(obs.StartTimer())
	keys := [1]string{key}
	var out [1]fetched
	err = c.fetch("get", keys[:], out[:])
	return out[0].value, out[0].ok, err
}

// MGet reads many keys as Get does, under one trace, with every key's
// first GETV in flight at once: each backend's share of the primaries
// travels as one frame (csnet.Batch, as MSet's writes do). The result
// maps each found key to its value; absent keys are simply not in the
// map. A non-nil error reports the first key whose full replica set
// failed, after the rest of the batch has completed.
func (c *Cluster) MGet(keys []string) (map[string][]byte, error) {
	defer distM.latMGet.ObserveSince(obs.StartTimer())
	out := make([]fetched, len(keys))
	err := c.fetch("mget", keys, out)
	found := make(map[string][]byte, len(keys))
	for i := range out {
		if out[i].ok {
			found[keys[i]] = out[i].value
		}
	}
	return found, err
}

// fetched is one key's read through fetch: its replica set, then what
// the read resolved to. The primary's GETV, its span and a failure to
// reach it live in fetch's per-backend slots, not here.
type fetched struct {
	set   []int // nil when no replica is asked: a cache hit, or none live
	value []byte
	ok    bool
}

// fetch is the one read path under Get and MGet: out[i] receives
// keys[i]. It serves what the cache can and queues every other key's
// GETV on its primary's burst — the batchClients core replicate uses,
// so a dead backend is dialed once per call, not once per key, and a
// backend's share is one frame — then resolves each key in turn: the
// primary's reply, and for a key it did not settle, the rest of the
// replica set through readFrom. The root span opens before the cache
// is consulted and reports the first error, which fetch also returns.
func (c *Cluster) fetch(op string, keys []string, out []fetched) (err error) {
	ctx, root := c.startOp(trace.KindOp, op)
	var slots [inlineBackends]clientSlot
	bc := c.batchClients(&slots)
	for i, key := range keys {
		f := &out[i]
		if e, hit := c.cached(key); hit {
			f.value, f.ok = bytes.Clone(e.Value), !e.Tombstone
			continue
		}
		if f.set = c.replicaSet(key); len(f.set) == 0 {
			if err == nil {
				err = noLiveErr("get", key)
			}
			continue
		}
		bc.add(ctx, trace.KindRPC, f.set[0], csnet.Request{Op: csnet.OpGetV, Key: key})
	}
	bc.flush()
	// Each primary answers in the order it was sent to, so walking the
	// keys again pairs every reply with its key.
	for i, key := range keys {
		f := &out[i]
		if len(f.set) == 0 {
			continue
		}
		var w readWalk
		resp, sp, rerr := bc.next(f.set[0])
		var done bool
		if f.value, f.ok, done = c.readStep(ctx, key, &w, f.set[0], resp, rerr, sp); done {
			continue
		}
		if f.value, f.ok, rerr = c.readFrom(ctx, &bc, key, f.set[1:], &w); rerr != nil && err == nil {
			err = rerr
		}
	}
	root.S.Err = err != nil
	root.Finish()
	return err
}

// readWalk is one key's read in progress across its replica set.
type readWalk struct {
	missed []int       // replicas that answered "not here"
	tomb   store.Entry // newest tombstone among those misses (Version 0: none seen)
	err    error       // the last replica that could not answer
}

// readFrom asks set's replicas one round trip at a time, in ring order,
// until one resolves the read. Each ask goes alone (batchClients.alone):
// the slot bursts' replies pair with the keys in send order, which a
// fallback sent in between would break. It dials through fetch's bc,
// so a dead replica costs one dial per call, not one per key. When
// none resolves the read, it is an error if any replica could not
// answer, and otherwise a miss — cached as a tombstone when the newest
// miss was an explicit delete, so polling a deleted key is as cheap as
// polling a hot value.
func (c *Cluster) readFrom(ctx trace.Context, bc *batchClients, key string, set []int, w *readWalk) (value []byte, ok bool, err error) {
	for _, b := range set {
		if _, err := bc.get(b); err != nil {
			w.err = err
			continue
		}
		sp := c.span(ctx, trace.KindRPC, "GETV", b)
		resp, err := bc.alone(b, csnet.Request{Op: csnet.OpGetV, Key: key, Trace: sp.Context()})
		if value, ok, done := c.readStep(ctx, key, w, b, resp, err, &sp); done {
			return value, ok, nil
		}
	}
	if w.err != nil {
		return nil, false, fmt.Errorf("dist: cluster get %q: %w", key, w.err)
	}
	if w.tomb.Version > 0 {
		c.cache.put(key, w.tomb)
	}
	return nil, false, nil
}

// entryOf lifts a versioned reply into the entry it carries.
func entryOf(resp csnet.Response) store.Entry {
	return store.Entry{Value: resp.Value, Version: resp.Version, Tombstone: resp.Flags&csnet.FlagTombstone != 0}
}

// readStep folds replica b's GETV reply — or the error that stood in
// for it — into the walk, closes its span, and reports whether it
// resolved the read. A live value does: it is repaired onto the
// replicas that missed — unless one of them reported a tombstone at
// least as new (a tie goes to the tombstone, matching Entry.Wins), in
// which case the value is the stale copy, the tombstone is pushed at
// its holder, and the key reads as gone. A miss or a failure moves the
// walk on.
func (c *Cluster) readStep(ctx trace.Context, key string, w *readWalk, b int, resp csnet.Response, err error, sp *trace.Active) (value []byte, ok, done bool) {
	if err == nil && resp.Status != csnet.StatusOK && resp.Status != csnet.StatusNotFound {
		err = statusErr(resp)
	}
	endSpan(sp, err != nil)
	if err != nil {
		w.err = err
		return nil, false, false
	}
	// Observe every version seen — misses included: a tombstone this
	// coordinator has read must order below its next
	// write, or a Set issued after reading the delete could stamp under
	// the tombstone and lose everywhere while reporting success.
	c.clock.Observe(resp.Version)
	e := entryOf(resp)
	if resp.Status == csnet.StatusNotFound {
		if e.Tombstone && e.Version > w.tomb.Version {
			w.tomb = store.Entry{Version: e.Version, Tombstone: true}
		}
		w.missed = append(w.missed, b)
		return nil, false, false
	}
	if w.tomb.Version >= e.Version {
		e = w.tomb
		c.readRepair(ctx, key, e, []int{b})
	} else if len(w.missed) > 0 {
		c.readRepair(ctx, key, e, w.missed)
	}
	c.cache.put(key, e)
	return e.Value, !e.Tombstone, true
}

// readRepair merges an entry onto replicas that returned a miss (or a
// stale copy) as one merge burst riding the read's trace, so a
// waterfall shows which replicas were backfilled (or tombstoned) and
// what it cost. Failures are ignored: the next read retries.
func (c *Cluster) readRepair(ctx trace.Context, key string, e store.Entry, missed []int) {
	// The repair entry supersedes whatever the cache holds below it;
	// the caller installs the same entry right after, replacing the
	// floor with the servable copy.
	c.cacheSupersede(key, e.Version)
	distM.readRepairs.Add(uint64(len(missed)))
	mb := mergeBurst{c: c, kind: trace.KindRepair}
	for _, b := range missed {
		mb.send(ctx, b, key, e)
	}
	mb.collect(nil)
}
