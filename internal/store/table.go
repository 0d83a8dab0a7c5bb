package store

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
	"sync"
	"unsafe"
)

// table is one shard's lock-agnostic core: an open-addressed index of
// records plus the live-entry bookkeeping and the transition rules
// (set, delete, merge, purge, sweep). Every method must be called with
// the enclosing shard's lock held.
type table struct {
	// slots holds each resident entry's record, found by linear probing
	// from its key's slot hash; the record holds the key, so a slot is
	// the 16-byte rec and nothing else. tags[i] says whether slot i is
	// empty, deleted or full, and a full slot's tag carries 7 bits of
	// its key's hash, so a probe reads a record only on a tag match —
	// the key it wants, or a 1-in-128 false match. Both are a power of
	// two long and never shrink.
	slots []rec
	tags  []byte
	// used counts full and deleted slots: a probe ends only at an empty
	// one, so both count toward the 7/8 limit. n counts full slots, the
	// resident entries.
	used, n int
	// touch notifies the engine's Merkle tree that key's raw entry
	// changed; every mutation of the slots must call it (never nil).
	touch func(key string)
	// live counts non-tombstone entries: live == number of entries
	// with Tombstone == false.
	live int
	// image is the log bytes the resident records take as frames — a
	// frame's CRC and version plus the record: what the log holds live,
	// and what the cleaner paces itself by (snapshot.go).
	image int64
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

const (
	tagEmpty   = 0
	tagDeleted = 1
	tagFull    = 0x80 // | the top 7 bits of the key's slot hash

	minSlots = 8
)

// slotSeed seeds the slot hash per process, so which keys collide in a
// table cannot be chosen from outside (Go's map seeds its hash for the
// same reason). keyHash32 is no substitute: it is fixed by the
// replication contract, and the shard mask is its low bits, so every key
// of a shard shares them.
var slotSeed = maphash.MakeSeed()

func newTable(touch func(key string)) table {
	return table{slots: make([]rec, minSlots), tags: make([]byte, minSlots), touch: touch}
}

// find probes for key. It returns key's slot and true or, when key is
// absent, the slot an insert of it should take — the first deleted slot
// the probe passed, else the empty one that ended it — and false; tag
// is the one a full slot holding key carries.
func (t *table) find(key string) (i int, tag byte, ok bool) {
	h := maphash.String(slotSeed, key)
	tag = tagFull | byte(h>>57)
	mask := len(t.tags) - 1
	free := -1
	for i = int(h) & mask; ; i = (i + 1) & mask {
		switch t.tags[i] {
		case tag:
			if t.slots[i].key() == key {
				return i, tag, true
			}
		case tagDeleted:
			if free < 0 {
				free = i
			}
		case tagEmpty:
			if free < 0 {
				free = i
			}
			return free, tag, false
		}
	}
}

// put stores key's entry e in slot i, which find returned for key with
// tag. A resident record as long as e's is rewritten in place, at no
// allocation; any other write takes a new record.
func (t *table) put(i int, tag byte, key string, e Entry) {
	if t.tags[i]&tagFull != 0 {
		b := t.slots[i].bytes()
		if _, size := recShape(key, e, 0); len(b) == size {
			was := t.liveAt(i) // read before the rewrite changes the flags
			appendRec(b[:0], key, e, 0)
			t.slots[i].ver = e.Version
			t.account(was, !e.Tombstone, key)
			tableRewrites.Inc()
			return
		}
	}
	t.replace(i, tag, newRec(key, e))
}

// replace stores r in slot i, which find returned for r's key with tag,
// keeping the counts and the Merkle tree current. An insert into an
// empty slot at the 7/8 limit resizes the index and probes again.
func (t *table) replace(i int, tag byte, r rec) {
	k := r.key()
	was := false
	if t.tags[i]&tagFull != 0 {
		was = t.liveAt(i)
		t.image -= frameLen(t.slots[i])
	} else {
		if t.tags[i] == tagEmpty {
			if t.used >= len(t.tags)/8*7 {
				t.resize(max(len(t.tags), slotsFor(t.n+1)))
				i, _, _ = t.find(k)
			}
			t.used++
		}
		t.tags[i] = tag
		t.n++
	}
	t.slots[i] = r
	t.image += frameLen(r)
	t.account(was, !r.tombstone(), k)
}

// liveAt reports whether full slot i holds a value. A table holding no
// tombstone knows without reading the record, which an overwrite
// otherwise never touches.
func (t *table) liveAt(i int) bool { return t.live == t.n || !t.slots[i].tombstone() }

// account keeps the live count as a slot that held a value (was) or not
// now holds one (is) or not, and marks key's bucket dirty.
func (t *table) account(was, is bool, key string) {
	if is && !was {
		t.live++
	} else if was && !is {
		t.live--
	}
	t.touch(key)
}

// remove deletes slot i's entry and returns its key. Nothing moves, so
// a walk of the slots may remove the one it stands on: the slot is
// marked deleted, which a probe passes over — or empty, when the next
// slot is empty and no probe can pass through it.
func (t *table) remove(i int) string {
	k := t.slots[i].key()
	if !t.slots[i].tombstone() {
		t.live--
	}
	t.image -= frameLen(t.slots[i])
	t.slots[i] = rec{}
	t.n--
	if t.tags[(i+1)&(len(t.tags)-1)] == tagEmpty {
		t.tags[i] = tagEmpty
		t.used--
	} else {
		t.tags[i] = tagDeleted
	}
	t.touch(k)
	return k
}

// resize rebuilds the index at size slots, a power of two whose 7/8
// holds every entry, reclaiming the deleted slots on the way. An insert
// at the limit resizes with room for one more entry: at twice the size
// when the entries alone would pass 7/8 of it, else at the same size; a
// load that knows its count resizes once, up front (reserve).
func (t *table) resize(size int) {
	slots, tags := t.slots, t.tags
	t.slots, t.tags, t.used = make([]rec, size), make([]byte, size), t.n
	mask := size - 1
	for j, tag := range tags {
		if tag&tagFull == 0 {
			continue
		}
		i := int(maphash.String(slotSeed, slots[j].key())) & mask
		for t.tags[i] != tagEmpty {
			i = (i + 1) & mask
		}
		t.slots[i], t.tags[i] = slots[j], tag
	}
}

// slotsFor returns the smallest index, at least minSlots, whose 7/8
// holds n entries.
func slotsFor(n int) int {
	size := minSlots
	for n > size/8*7 {
		size *= 2
	}
	return size
}

// reserve grows the index to hold n entries, so a load of that many
// resizes once instead of doubling its way up. A larger index is kept.
func (t *table) reserve(n int) {
	if size := slotsFor(n); size > len(t.tags) {
		t.resize(size)
	}
}

// A record is one entry's key, value and metadata in a single
// allocation:
//
//	flags(1) | klen(2) | vlen(4) | key | value
//
// little-endian, klen widening to 4 bytes for a key over 64 KiB. A
// 9-byte key and a 128-byte value make exactly the 144-byte size class.
// The version lives beside the pointer in the slot, where merge and
// sweep compare it. The log stores this same layout byte for byte
// behind a CRC and the version (wal.go), so the cleaner re-appends a
// resident record as it is and replay copies the record it read over
// the resident one, or into a new one (install).
//
// The rule that makes the aliasing safe: no slice of a record outlives
// the shard lock, so any write of the same length — the same key and an
// equally long value — rewrites its key's record in place, and a value
// a reader keeps (Get, AppendLoad) is a copy. This file is the only one
// that converts between a record and the string and slices aliasing it.
type rec struct {
	p   *byte
	ver uint64
}

const (
	flagTombstone = 1 << iota
	flagLongKey
	// flagPurge marks a log record that removes its key outright; it
	// is never installed in a table.
	flagPurge
	flagsKnown = flagPurge<<1 - 1

	baseHeader = 1 + 2 + 4 // flags, klen, vlen: the header without its options
)

// appendRec lays key and e out as a record, with flags as well as the
// ones e implies, on the end of dst: the one encoder of the layout,
// behind newRec, an in-place rewrite and the log. A tombstone's value
// is dropped.
func appendRec(dst []byte, key string, e Entry, flags byte) []byte {
	flags, size := recShape(key, e, flags)
	if e.Tombstone {
		e.Value = nil
	}
	hdr, lw := header(flags)
	if dst == nil {
		dst = make([]byte, 0, size) // newRec's: one allocation, under -race too
	}
	n := len(dst)
	dst = slices.Grow(dst, size)[:n+size]
	b := dst[n:] // every byte of it is written below
	b[0] = flags
	if lw == 2 {
		binary.LittleEndian.PutUint16(b[1:], uint16(len(key)))
	} else {
		binary.LittleEndian.PutUint32(b[1:], uint32(len(key)))
	}
	binary.LittleEndian.PutUint32(b[1+lw:], uint32(len(e.Value)))
	copy(b[hdr:], key)
	copy(b[hdr+len(key):], e.Value)
	return dst
}

// recShape returns the flags a record of key and e carries, flags
// included, and the record's length.
func recShape(key string, e Entry, flags byte) (byte, int) {
	vlen := len(e.Value)
	if e.Tombstone {
		flags |= flagTombstone
		vlen = 0
	}
	if len(key) > math.MaxUint16 {
		flags |= flagLongKey
	}
	hdr, _ := header(flags)
	return flags, hdr + len(key) + vlen
}

// newRec lays key and e out as a new record in an allocation of its
// own.
func newRec(key string, e Entry) rec {
	b := appendRec(nil, key, e, 0)
	return rec{p: &b[0], ver: e.Version}
}

// header returns the header length of a record with these flags and
// the width of its klen field.
func header(flags byte) (hdr, lw int) {
	hdr, lw = baseHeader, 2
	if flags&flagLongKey != 0 {
		hdr, lw = hdr+2, 4
	}
	return hdr, lw
}

// layout reads r's header: its flags, its length and its key's and
// value's lengths.
func (r rec) layout() (flags byte, hdr, klen, vlen int) {
	flags = *r.p
	hdr, lw := header(flags)
	h := unsafe.Slice(r.p, hdr)
	klen = int(binary.LittleEndian.Uint16(h[1:]))
	if lw == 4 {
		klen = int(binary.LittleEndian.Uint32(h[1:]))
	}
	return flags, hdr, klen, int(binary.LittleEndian.Uint32(h[1+lw:]))
}

// bytes returns the slice aliasing the whole of r's record.
func (r rec) bytes() []byte {
	_, hdr, klen, vlen := r.layout()
	return unsafe.Slice(r.p, hdr+klen+vlen)
}

// frameLen is the log bytes r takes as a frame: CRC, version, record.
func frameLen(r rec) int64 { return int64(frameHead + len(r.bytes())) }

// clone copies r into an allocation of its own: what replay makes of a
// record it read into a reused buffer when no resident record of its
// length can take it (install).
func (r rec) clone() rec {
	b := append([]byte(nil), r.bytes()...)
	return rec{p: &b[0], ver: r.ver}
}

// tombstone reports whether r is a tombstone, reading only its flags.
func (r rec) tombstone() bool { return *r.p&flagTombstone != 0 }

// purge reports whether r is a log record removing its key.
func (r rec) purge() bool { return *r.p&flagPurge != 0 }

// key returns the string aliasing r's key bytes.
func (r rec) key() string {
	_, hdr, klen, _ := r.layout()
	if klen == 0 {
		return ""
	}
	return unsafe.String(&unsafe.Slice(r.p, hdr+klen)[hdr], klen)
}

// entry rebuilds the Entry r holds. Its Value aliases the record, with
// capacity equal to its length, and is nil when the value is empty.
func (r rec) entry() Entry {
	flags, hdr, klen, vlen := r.layout()
	b := unsafe.Slice(r.p, hdr+klen+vlen)
	e := Entry{Version: r.ver, Tombstone: flags&flagTombstone != 0}
	if vlen > 0 {
		e.Value = b[hdr+klen : len(b) : len(b)]
	}
	return e
}

// lookup returns key's resident record, which aliases the table and
// is valid only under the shard lock.
func (t *table) lookup(key string) (rec, bool) {
	if i, _, ok := t.find(key); ok {
		return t.slots[i], true
	}
	return rec{}, false
}

// appendLoad returns key's raw entry, tombstones included, with its
// value copied onto the end of dst: the entry's Value aliases the
// returned slice, with capacity equal to its length, never the record.
func (t *table) appendLoad(dst []byte, key string) ([]byte, Entry, bool) {
	i, _, ok := t.find(key)
	if !ok {
		return dst, Entry{}, false
	}
	e := t.slots[i].entry()
	if e.Value != nil {
		n := len(dst)
		dst = append(dst, e.Value...)
		e.Value = dst[n:len(dst):len(dst)]
	}
	return dst, e, true
}

// set installs a value entry (a copy of val) at version ver.
func (t *table) set(key string, val []byte, ver uint64) {
	i, tag, _ := t.find(key)
	t.put(i, tag, key, Entry{Value: val, Version: ver})
}

// del installs a tombstone at version ver and reports whether a live
// value was displaced.
func (t *table) del(key string, ver uint64) bool {
	i, tag, had := t.find(key)
	existed := had && !t.slots[i].tombstone()
	t.put(i, tag, key, Entry{Version: ver, Tombstone: true})
	return existed
}

// merge applies e iff it Wins the resident entry, storing a copy of its
// value. It returns the winning version and whether e was applied.
func (t *table) merge(key string, e Entry) (uint64, bool) {
	i, tag, had := t.find(key)
	// Wins orders by version first: only a tie reads the record.
	if cur := t.slots[i]; had && (e.Version < cur.ver || e.Version == cur.ver && !e.Wins(cur.entry())) {
		return cur.ver, false
	}
	t.put(i, tag, key, e)
	return e.Version, true
}

// install stores r exactly as given — no Wins comparison. Replay uses
// it: records reapply in append order, so last-record-wins reproduces
// the table state at the crash point. r may alias the reader's buffer:
// like put for a served write, install rewrites a resident record of
// r's length in place and clones r only for a new key or a new length,
// so a key the log rewrote K times costs one record, not K. An in-place
// install is not a served write and does not count in
// store.table.rewrites.
func (t *table) install(r rec) {
	i, tag, ok := t.find(r.key())
	if b := r.bytes(); ok {
		if cur := t.slots[i].bytes(); len(cur) == len(b) {
			was := t.liveAt(i) // read before the copy changes the flags
			copy(cur, b)
			t.slots[i].ver = r.ver
			t.account(was, !r.tombstone(), r.key())
			return
		}
	}
	t.replace(i, tag, r.clone())
}

// purge removes key's entry outright if its version is at most ver,
// reporting whether it did.
func (t *table) purge(key string, ver uint64) bool {
	i, _, ok := t.find(key)
	if !ok || t.slots[i].ver > ver {
		return false
	}
	t.remove(i)
	return true
}

// size reports the resident entries, tombstones included.
func (t *table) size() int { return t.n }

// scan calls fn with every entry of the Merkle buckets want marks (the
// engine's scanBuckets), decoding only those, and reports whether it
// got through the table without fn stopping it.
func (t *table) scan(want []bool, fn func(b int, key string, e Entry) bool) bool {
	for i, tag := range t.tags {
		if tag&tagFull == 0 {
			continue
		}
		r := t.slots[i]
		k := r.key()
		if b := BucketOf(k, len(want)); want[b] && !fn(b, k, r.entry()) {
			return false
		}
	}
	return true
}

// sweep scans the whole table, garbage-collecting tombstones whose
// version's wall-clock bits are older than the GC horizon. onPurge
// (may be nil) fires for each GC'd tombstone while the enclosing lock
// is still held — the persistent engine logs the purge there so a
// reopen cannot resurrect a collected tombstone. remove leaves the
// slot it empties where it is, so the walk meets every entry once.
func (t *table) sweep(gcBeforeMillis int64, onPurge func(key string)) (purged int) {
	for i, tag := range t.tags {
		if tag&tagFull == 0 {
			continue
		}
		if r := t.slots[i]; r.tombstone() && WallMillis(r.ver) < gcBeforeMillis {
			k := t.remove(i)
			if onPurge != nil {
				onPurge(k)
			}
			purged++
		}
	}
	return purged
}
