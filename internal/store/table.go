package store

import (
	"encoding/binary"
	"iter"
	"math"
	"sync"
	"time"
	"unsafe"
)

// table is the lock-agnostic core both engines share: one map of
// records plus the bookkeeping that keeps Flat and Sharded from ever
// drifting semantically. Every method must be called with the
// enclosing engine's lock (the shard's, or Flat's single one) held.
type table struct {
	// data maps each key to its record. The map key is a string that
	// aliases the record's own key bytes, so a resident entry costs one
	// allocation and a 32-byte slot. Go's string-keyed map replaces the
	// stored key when an existing key is assigned, so an overwritten
	// record is released with its slot's old key.
	data map[string]rec
	// now is the wall-time source, consulted lazily: an entry with no
	// TTL never costs a clock read on the hot path.
	now func() time.Time
	// touch notifies the engine's Merkle tree that key's raw entry
	// changed; every mutation of data must call it (never nil).
	touch func(key string)
	// live counts non-tombstone entries. An entry that expired but has
	// not been lazily tombstoned or swept still counts; the invariant
	// is live == number of entries with Tombstone == false.
	live int
}

// shard is one table behind its own mutex, padded out to whole 64-byte
// cache lines so two cores hammering neighboring shards do not
// false-share (the same trap internal/arch/falsesharing.go teaches).
// The pad is derived from the sizes it complements, so a change to
// table cannot silently unalign it.
type shard struct {
	mu sync.Mutex
	t  table
	_  [(64 - (unsafe.Sizeof(sync.Mutex{})+unsafe.Sizeof(table{}))%64) % 64]byte
}

func newTable(now func() time.Time, touch func(key string)) table {
	return table{data: map[string]rec{}, now: now, touch: touch}
}

// A record is one entry's key, value and metadata in a single
// allocation:
//
//	flags(1) | klen(2) | vlen(4) | expireAt(8, only when set) | key | value
//
// little-endian, klen widening to 4 bytes for a key over 64 KiB. A
// 9-byte key and a 128-byte value make exactly the 144-byte size class.
// The version lives beside the pointer in the map slot, where merge and
// sweep compare it.
//
// The rule that makes the aliasing safe: a record is written once, when
// newRec creates it, and is never mutated or reused. The map key and
// every Entry.Value handed out point into it, and the garbage collector
// keeps it alive for as long as any of them does, so a caller holding a
// Value sees the same bytes whatever happens to the key afterwards.
// This file is the only one that converts between a record and the
// string and slices aliasing it.
type rec struct {
	p   *byte
	ver uint64
}

const (
	flagTombstone = 1 << iota
	flagExpires
	flagLongKey

	baseHeader = 1 + 2 + 4 // flags, klen, vlen: the header without its options
)

// newRec lays key and e out as a new record and returns it with the
// string that aliases its key — the one to store it under. A
// tombstone's value is dropped.
func newRec[K ~string | ~[]byte](key K, e Entry) (string, rec) {
	var flags byte
	if e.Tombstone {
		flags |= flagTombstone
		e.Value = nil
	}
	if len(key) > math.MaxUint16 {
		flags |= flagLongKey
	}
	if e.ExpireAt != 0 {
		flags |= flagExpires
	}
	hdr, lw := header(flags)
	b := make([]byte, hdr+len(key)+len(e.Value))
	b[0] = flags
	if lw == 2 {
		binary.LittleEndian.PutUint16(b[1:], uint16(len(key)))
	} else {
		binary.LittleEndian.PutUint32(b[1:], uint32(len(key)))
	}
	binary.LittleEndian.PutUint32(b[1+lw:], uint32(len(e.Value)))
	if e.ExpireAt != 0 {
		binary.LittleEndian.PutUint64(b[hdr-8:], uint64(e.ExpireAt))
	}
	copy(b[hdr:], key)
	copy(b[hdr+len(key):], e.Value)
	k := ""
	if len(key) > 0 {
		k = unsafe.String(&b[hdr], len(key))
	}
	return k, rec{p: &b[0], ver: e.Version}
}

// header returns the header length of a record with these flags and
// the width of its klen field.
func header(flags byte) (hdr, lw int) {
	hdr, lw = baseHeader, 2
	if flags&flagLongKey != 0 {
		hdr, lw = hdr+2, 4
	}
	if flags&flagExpires != 0 {
		hdr += 8
	}
	return hdr, lw
}

// tombstone reports whether r is a tombstone, reading only its flags.
func (r rec) tombstone() bool { return *r.p&flagTombstone != 0 }

// entry rebuilds the Entry r holds. Its Value aliases the record, with
// capacity equal to its length, and is nil when the value is empty.
func (r rec) entry() Entry {
	flags := *r.p
	hdr, lw := header(flags)
	h := unsafe.Slice(r.p, hdr)
	klen := int(binary.LittleEndian.Uint16(h[1:]))
	if lw == 4 {
		klen = int(binary.LittleEndian.Uint32(h[1:]))
	}
	vlen := int(binary.LittleEndian.Uint32(h[1+lw:]))
	e := Entry{Version: r.ver, Tombstone: flags&flagTombstone != 0}
	if flags&flagExpires != 0 {
		e.ExpireAt = int64(binary.LittleEndian.Uint64(h[hdr-8:]))
	}
	if vlen > 0 {
		b := unsafe.Slice(r.p, hdr+klen+vlen)
		e.Value = b[hdr+klen : len(b) : len(b)]
	}
	return e
}

// liveNow reports whether e is readable, reading the wall clock only
// when e actually carries an expiry.
func (t *table) liveNow(e Entry) bool {
	if e.Tombstone {
		return false
	}
	return e.ExpireAt == 0 || t.now().UnixNano() < e.ExpireAt
}

// get returns key's live entry, lazily converting an expired one into
// a tombstone: the tombstone keeps the entry's version and expiry, so
// the expiry propagates through merge like a delete would, and a stale
// immortal copy on another replica can never resurrect the value (the
// hole outright deletion used to leave). The sweeper reaps it at the
// GC horizon.
func (t *table) get(key string) (Entry, bool) {
	r, ok := t.data[key]
	if !ok {
		return Entry{}, false
	}
	e := r.entry()
	if e.Tombstone {
		return Entry{}, false
	}
	if e.ExpireAt != 0 && t.now().UnixNano() >= e.ExpireAt {
		t.expire(key, r, e)
		return Entry{}, false
	}
	return e, true
}

// expire converts key's expired value entry cur (holding e) into its
// expiry tombstone.
func (t *table) expire(key string, cur rec, e Entry) {
	k, r := newRec(key, Entry{Version: e.Version, Tombstone: true, ExpireAt: e.ExpireAt})
	t.replace(k, r, cur, true)
}

// load returns the raw entry, tombstones and expired entries included.
func (t *table) load(key string) (Entry, bool) {
	r, ok := t.data[key]
	if !ok {
		return Entry{}, false
	}
	return r.entry(), true
}

// set installs a value entry (a record holding a copy of val) at
// version ver.
func (t *table) set(key string, val []byte, ver uint64, expireAt int64) {
	cur, had := t.data[key]
	k, r := newRec(key, Entry{Value: val, Version: ver, ExpireAt: expireAt})
	t.replace(k, r, cur, had)
}

// del installs a tombstone at version ver and reports whether a live
// value was displaced.
func (t *table) del(key string, ver uint64) bool {
	cur, had := t.data[key]
	existed := had && t.liveNow(cur.entry())
	k, r := newRec(key, Entry{Version: ver, Tombstone: true})
	t.replace(k, r, cur, had)
	return existed
}

// merge applies e iff it Wins the resident entry, installing a record
// that holds a copy of its value. It returns the winning version and
// whether e was applied.
func (t *table) merge(key string, e Entry) (uint64, bool) {
	cur, had := t.data[key]
	// Wins orders by version first: only a tie reads the record.
	if had && (e.Version < cur.ver || e.Version == cur.ver && !e.Wins(cur.entry())) {
		return cur.ver, false
	}
	k, r := newRec(key, e)
	t.replace(k, r, cur, had)
	return e.Version, true
}

// install stores r under k exactly as given — no Wins comparison. WAL
// replay uses it: records reapply in append order, so
// last-record-wins reproduces the table state at the crash point, and
// each decoded record is built once, straight from the log's bytes.
func (t *table) install(k string, r rec) {
	cur, had := t.data[k]
	t.replace(k, r, cur, had)
}

// replace stores r under k (the string aliasing r's key) in place of
// cur, which had says exists, keeping the live count and the Merkle
// tree current. A table holding no tombstone knows cur is a value
// without reading its record, which an overwrite otherwise never
// touches.
func (t *table) replace(k string, r rec, cur rec, had bool) {
	was, is := had && (t.live == len(t.data) || !cur.tombstone()), !r.tombstone()
	if is && !was {
		t.live++
	} else if was && !is {
		t.live--
	}
	t.data[k] = r
	t.touch(k)
}

// purge removes key's entry outright if its version is at most ver,
// reporting whether it did.
func (t *table) purge(key string, ver uint64) bool {
	cur, ok := t.data[key]
	if !ok || cur.ver > ver {
		return false
	}
	if !cur.tombstone() {
		t.live--
	}
	delete(t.data, key)
	t.touch(key)
	return true
}

// size reports the resident entries, tombstones included.
func (t *table) size() int { return len(t.data) }

// all iterates every resident entry, tombstones included.
func (t *table) all() iter.Seq2[string, Entry] {
	return func(yield func(string, Entry) bool) {
		for k, r := range t.data {
			if !yield(k, r.entry()) {
				return
			}
		}
	}
}

// scan calls fn with every entry of the Merkle buckets want marks (the
// engines' scanBuckets), decoding only those, and reports whether it
// got through the table without fn stopping it.
func (t *table) scan(want []bool, fn func(b int, key string, e Entry) bool) bool {
	for k, r := range t.data {
		if b := BucketOf(k, len(want)); want[b] && !fn(b, k, r.entry()) {
			return false
		}
	}
	return true
}

// sweep scans the whole table, converting expired value entries into
// expiry tombstones and garbage-collecting tombstones older than the
// GC horizon. A delete tombstone ages from its version's wall-clock
// bits; an expiry tombstone from max(write wall time, ExpireAt), so it
// survives long enough for every replica to have expired its own copy.
// onPurge (may be nil) fires for each GC'd tombstone while the
// enclosing lock is still held — the persistent engine logs the purge
// there so a reopen cannot resurrect a collected tombstone. Expiry
// conversions are deliberately not reported: they are deterministic
// from the stored ExpireAt, so replay re-derives them for free.
func (t *table) sweep(now, gcBeforeMillis int64, onPurge func(key string)) (expired, purged int) {
	for k, r := range t.data {
		e := r.entry()
		switch {
		case e.Tombstone:
			age := WallMillis(e.Version)
			if expMillis := e.ExpireAt / int64(time.Millisecond); expMillis > age {
				age = expMillis
			}
			if age < gcBeforeMillis {
				delete(t.data, k)
				t.touch(k)
				if onPurge != nil {
					onPurge(k)
				}
				purged++
			}
		case e.ExpireAt != 0 && now >= e.ExpireAt:
			t.expire(k, r, e)
			expired++
		}
	}
	return expired, purged
}
