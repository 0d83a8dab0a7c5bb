package store

import (
	"sync"
	"time"
)

// Flat is the single-lock engine: one table behind one mutex. It is
// the baseline Sharded is benchmarked against, the reference
// implementation the randomized property test cross-checks, and a
// perfectly good engine for small single-writer stores where shard
// bookkeeping buys nothing.
type Flat struct {
	clock  *Clock
	now    func() time.Time
	gcAge  time.Duration
	merkle merkle

	mu sync.Mutex
	t  table
}

// NewFlat creates a flat engine (Options.Shards is ignored).
func NewFlat(o Options) *Flat {
	o = o.withDefaults()
	f := &Flat{clock: o.Clock, now: o.Now, gcAge: o.TombstoneGC}
	f.merkle.init(merkleBuckets(o.MerkleBuckets, 1))
	f.t = newTable(f.merkle.touch)
	return f
}

// Get implements Engine.
func (f *Flat) Get(key string) (Entry, bool) {
	f.mu.Lock()
	e, ok := f.t.get(key)
	f.mu.Unlock()
	return e, ok
}

// Load implements Engine.
func (f *Flat) Load(key string) (Entry, bool) {
	f.mu.Lock()
	e, ok := f.t.load(key)
	f.mu.Unlock()
	return e, ok
}

// Set implements Engine.
func (f *Flat) Set(key string, value []byte) uint64 {
	f.mu.Lock()
	ver := f.clock.Next()
	f.t.set(key, value, ver)
	f.mu.Unlock()
	return ver
}

// Delete implements Engine.
func (f *Flat) Delete(key string) (uint64, bool) {
	f.mu.Lock()
	ver := f.clock.Next()
	existed := f.t.del(key, ver)
	f.mu.Unlock()
	return ver, existed
}

// Merge implements Engine.
func (f *Flat) Merge(key string, e Entry) (uint64, bool) {
	f.clock.Observe(e.Version)
	f.mu.Lock()
	winner, applied := f.t.merge(key, e)
	f.mu.Unlock()
	return winner, applied
}

// Purge implements Engine.
func (f *Flat) Purge(key string, version uint64) bool {
	f.mu.Lock()
	ok := f.t.purge(key, version)
	f.mu.Unlock()
	return ok
}

// Len implements Engine.
func (f *Flat) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t.live
}

// Sweep implements Engine; the limit is ignored beyond "at least one
// pass" since there is only one table to scan.
func (f *Flat) Sweep(int) (purged int) {
	gcBefore := f.now().Add(-f.gcAge).UnixMilli()
	f.mu.Lock()
	purged = f.t.sweep(gcBefore, nil)
	f.mu.Unlock()
	sweepPurged.Add(uint64(purged))
	return purged
}

// Counts implements Engine.
func (f *Flat) Counts() (live, tombstones int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t.live, f.t.size() - f.t.live
}

// scanBuckets calls fn with every entry of the buckets want marks: one
// table, so any wanted bucket costs a full scan under the single lock —
// the same ceiling every Flat snapshot has.
func (f *Flat) scanBuckets(want []bool, fn func(b int, key string, e Entry) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t.scan(want, fn)
}

// RangeBuckets implements Engine.
func (f *Flat) RangeBuckets(ids []int, fn func(key string, e Entry) bool) {
	f.scanBuckets(f.merkle.want(ids), func(_ int, k string, e Entry) bool { return fn(k, e) })
}

// Digest implements Engine.
func (f *Flat) Digest() *Digest { return f.merkle.digest(f.scanBuckets) }

// Buckets implements Engine.
func (f *Flat) Buckets() int { return f.merkle.buckets }

// Clock implements Engine.
func (f *Flat) Clock() *Clock { return f.clock }
