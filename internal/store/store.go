// Package store is the storage-engine substrate under the csnet KV
// protocol, the dist cluster, and the txn transactional layer: one
// engine, Sharded, whose entries are versioned by a hybrid-logical-clock
// stamp, with tombstoned deletes and last-writer-wins merge.
//
// The key space is split over N power-of-two shards, each a hash table
// behind its own mutex, so writers on different shards never contend
// and a full-store listing (RangeBuckets over every bucket) locks one
// shard at a time instead of stalling every writer for the whole
// listing. examples/distkv races a one-mutex map against it to show
// what a global lock costs; the randomized property test checks it
// against a plain map model.
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
// The engine also maintains an incremental Merkle tree over its raw
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
	// engine copies it into its record on a write, and a read (Get,
	// AppendLoad) hands out a copy, with capacity equal to its length,
	// that stays intact whatever later happens to the key: no slice of
	// a record outlives the engine's lock, so an overwrite of the same
	// length rewrites the record in place.
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

// Options configures an engine. The zero value is ready to use.
type Options struct {
	// Shards is the shard count, rounded up to a power of two (default
	// DefaultShards).
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
