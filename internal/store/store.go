// Package store is the storage-engine substrate under the csnet KV
// protocol, the dist cluster, and the txn transactional layer: a
// pluggable Engine interface whose entries are versioned by a
// hybrid-logical-clock stamp, with tombstoned deletes and
// last-writer-wins merge.
//
// Two implementations ship. Sharded is the production engine: the key
// space is split over N power-of-two shards, each a hash table behind
// its own mutex, so writers on different shards never contend and a
// full-store listing (RangeBuckets over every bucket) locks one shard
// at a time instead of stalling every writer for the whole listing. Flat is the
// single-lock baseline the benchmarks and the randomized property test
// measure Sharded against; both share one transition-rule core (table)
// so their semantics cannot drift.
//
// Version semantics: every write is stamped by a Clock value that is
// unique and monotonic on its node and roughly tracks wall time across
// nodes (clock.go). Merge applies an entry only if it Wins the resident
// one — strictly newer version, or on a version tie tombstone beats
// value and the lexicographically larger value beats the smaller, so
// any set of replicas merging the same entries converges to one state
// regardless of delivery order. A stale replay can therefore never
// overwrite a newer write, which is what lets the replication layer
// drop its set-if-absent ordering tricks.
//
// Deletes write tombstones rather than removing entries, so a delete
// can propagate through merge exactly like a write: a replica that
// held an older copy of the key through the delete loses the merge
// instead of resurrecting the value. Sweep garbage-collects tombstones
// once they are older than the configured GC age, measured from the
// wall-clock bits of the tombstone's version.
//
// Every engine also maintains an incremental Merkle tree over its raw
// entry space (Digest): leaves are hash-partitioned key buckets,
// dirtied on write and rebuilt lazily, so two replicas can find their
// differences in O(log buckets) hash exchanges instead of comparing
// full listings. See merkle.go and the csnet OpTreeV/OpRangeV ops.
package store

import (
	"bytes"
	"time"
)

// Entry is one versioned record.
type Entry struct {
	// Value is the payload; nil for tombstones and empty values. An
	// engine copies it into its record on a write, and Get and Load
	// hand out a slice aliasing that record with no copy: its capacity
	// equals its length, it must not be modified, and it stays intact
	// whatever later happens to the key, because a record is never
	// mutated once a slice of it has been handed out past the engine's
	// lock. A record no reader was handed is rewritten in place by an
	// overwrite of the same length.
	Value []byte
	// Version is the HLC stamp ordering this write; never zero for a
	// stored entry.
	Version uint64
	// Tombstone marks a deleted key awaiting garbage collection.
	Tombstone bool
}

// Wins reports whether e supersedes cur under last-writer-wins merge:
// the higher version wins; on a version tie a tombstone beats a value,
// and the lexicographically larger value beats the smaller. The chain
// is a strict total order, so concurrent merges converge to the same
// entry whichever order they apply in. Equal entries do not win (merge
// is idempotent).
func (e Entry) Wins(cur Entry) bool {
	if e.Version != cur.Version {
		return e.Version > cur.Version
	}
	if e.Tombstone != cur.Tombstone {
		return e.Tombstone
	}
	return bytes.Compare(e.Value, cur.Value) > 0
}

// Engine is a versioned key-value storage engine. Implementations are
// safe for concurrent use, and keep neither a key nor a value a caller
// passes in past the call: whatever they store is their own copy (a
// table stores the key its record holds), so a server may hand them
// bytes it is about to reuse.
type Engine interface {
	// Get returns the live entry for key: tombstoned and absent keys
	// both miss.
	Get(key string) (Entry, bool)
	// Load returns the raw entry including tombstones — the
	// replication view.
	Load(key string) (Entry, bool)
	// Set stores value with a fresh clock version and returns the
	// stamped version.
	Set(key string, value []byte) uint64
	// Delete tombstones key at a fresh clock version (recording the
	// deletion even when the key was never present, so it can propagate
	// to replicas that do hold a copy) and reports whether a live value
	// existed.
	Delete(key string) (uint64, bool)
	// Merge applies e iff e.Wins the resident entry, observing
	// e.Version on the clock either way. It returns the winning
	// version and whether e was applied.
	Merge(key string, e Entry) (winner uint64, applied bool)
	// Purge removes key's entry outright — no tombstone, no version
	// stamp — iff its version is at most version, so a purge can never
	// take a write newer than the copy it was aimed at. Anti-entropy uses
	// it to drop copies a backend holds outside the buckets it owns;
	// tests pass math.MaxUint64 to simulate data loss. It reports whether
	// an entry was removed.
	Purge(key string, version uint64) bool
	// RangeBuckets calls fn with every raw entry (tombstones included)
	// whose key hashes into one of the listed Merkle buckets (see
	// BucketOf; ids may repeat and come in any order, each entry is
	// visited once) — how the anti-entropy protocol lists exactly the
	// divergent buckets, and the engine's one listing: every bucket from
	// 0 to Buckets()-1 lists the whole store. Nothing is copied: fn runs
	// under the lock of the shard it is reading, one scan per shard
	// however many of its buckets are listed, so fn must be brief, must
	// not call back into the engine, and must copy a key or a value it
	// keeps — a listed value is not lent (see Entry.Value), so the next
	// write to its key may rewrite it in place. fn returning false stops
	// the iteration.
	RangeBuckets(ids []int, fn func(key string, e Entry) bool)
	// Buckets reports the Merkle leaf count, fixed when the engine was
	// created — Digest().Buckets() without rebuilding anything.
	Buckets() int
	// Counts reports the live entries and the resident tombstones;
	// their sum is what a RangeBuckets over every bucket visits.
	Counts() (live, tombstones int)
	// Digest returns a point-in-time Merkle tree over the raw entry
	// space — tombstones included, exactly what RangeBuckets lists. Dirty buckets are rebuilt lazily
	// here; an idle engine answers from a cached snapshot.
	Digest() *Digest
	// Len reports the number of non-tombstone entries.
	Len() int
	// Sweep garbage-collects tombstones older than the engine's GC
	// age, scanning roughly limit entries (at least one shard; limit
	// <= 0 sweeps everything). It returns how many tombstones were
	// removed.
	Sweep(limit int) (purged int)
	// Clock returns the engine's version clock, so a coordinator can
	// stamp or observe versions consistently with local writes.
	Clock() *Clock
}

// Options configures an engine. The zero value is ready to use.
type Options struct {
	// Shards is the shard count for Sharded, rounded up to a power of
	// two (default DefaultShards). Flat ignores it.
	Shards int
	// MerkleBuckets is the Merkle tree leaf count, rounded up to a
	// power of two no smaller than the shard count (default
	// DefaultMerkleBuckets). Replicas must agree on it for their
	// digests to be comparable; the wire exchange carries it so a
	// mismatch is detected rather than mis-diffed.
	MerkleBuckets int
	// Clock supplies versions; nil creates a fresh clock (driven by
	// Now when that is set).
	Clock *Clock
	// TombstoneGC is how long tombstones are retained before Sweep
	// collects them (default one hour). Keep it longer than the
	// longest expected replica outage, or a rejoining node can miss a
	// delete.
	TombstoneGC time.Duration
	// Now is the wall-time source for tombstone GC (default
	// time.Now). Tests inject a fake time here.
	Now func() time.Time
}

// DefaultTombstoneGC is the tombstone retention when Options.TombstoneGC
// is zero.
const DefaultTombstoneGC = time.Hour

func (o Options) withDefaults() Options {
	if o.TombstoneGC <= 0 {
		o.TombstoneGC = DefaultTombstoneGC
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Clock == nil {
		now := o.Now
		o.Clock = NewClockAt(func() int64 { return now().UnixMilli() })
	}
	return o
}
