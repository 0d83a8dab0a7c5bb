package store

import (
	"sync"
	"sync/atomic"
)

// DefaultMerkleBuckets is the Merkle leaf count when
// Options.MerkleBuckets is zero: wide enough that one divergent key
// dirties ~1/1024 of the keyspace, small enough that a full digest is
// a few KB on the wire.
const DefaultMerkleBuckets = 1024

// keyHash32 is the shared 32-bit key hash (FNV-1a with an avalanche
// finish) both the shard router and the Merkle bucket partition are
// built on. It is part of the replication contract: two engines with
// the same bucket count produce comparable trees only because they
// bucket keys identically.
func keyHash32(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	h ^= h >> 16
	return h
}

// BucketOf maps key onto its Merkle bucket in a tree with the given
// leaf count (a power of two). Replicas and their coordinator must use
// this same partition for digests to be comparable.
func BucketOf(key string, buckets int) int {
	return int(keyHash32(key) & uint32(buckets-1))
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// ValueDigest hashes a value's bytes into the 64-bit digest carried by
// bucket listings and folded into leaf hashes — what makes two
// same-version different-value copies visibly divergent. Tombstones
// (nil values) digest to 0; any real value digests nonzero.
func ValueDigest(v []byte) uint64 {
	if v == nil {
		return 0
	}
	h := uint64(fnvOffset64)
	for _, b := range v {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	if h = avalanche(h); h == 0 {
		h = 1
	}
	return h
}

// avalanche spreads every input bit over the whole word (the 64-bit
// finalizer of MurmurHash3): FNV-1a alone leaves the low bits of its
// result a function of the low bits of its input.
func avalanche(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// hashU64 folds one 64-bit word into a running FNV-1a hash.
func hashU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// hashEntry folds one (key, entry) tuple into a running hash.
func hashEntry(h uint64, key string, e Entry) uint64 {
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	h ^= 0xff // separator: "ab"+"c" must not collide with "a"+"bc"
	h *= fnvPrime64
	h = hashU64(h, e.Version)
	if e.Tombstone {
		h ^= 1
		h *= fnvPrime64
	}
	return hashU64(h, ValueDigest(e.Value))
}

// leafTerm is one entry's contribution to its bucket's leaf: the
// tuple's hash, avalanched so that terms which differ in a few bits do
// not cancel when summed.
func leafTerm(key string, e Entry) uint64 {
	return avalanche(hashEntry(fnvOffset64, key, e))
}

// innerHash combines two child hashes into their parent. Empty
// subtrees (both children 0) stay 0, so two replicas missing the same
// key range compare equal without hashing anything.
func innerHash(l, r uint64) uint64 {
	if l == 0 && r == 0 {
		return 0
	}
	h := hashU64(uint64(fnvOffset64), l)
	h = hashU64(h, r)
	if h == 0 {
		h = 1
	}
	return h
}

// Digest is an immutable point-in-time Merkle tree over an engine's
// raw entry space (tombstones included, exactly the replication view).
// Leaves are the engine's hash-partitioned buckets; leaf b is the
// wrapping sum of leafTerm over the bucket's (key, version,
// value-digest, tombstone) tuples — a commutative reduction, so a leaf
// is accumulated in whatever order a scan meets the entries and
// nothing is gathered or sorted — with 0 reserved for the empty
// bucket; inner nodes hash their two children.
// Nodes are 1-indexed heap style: node 1 is the root, node i's
// children are 2i and 2i+1, and leaf b is node Buckets()+b — the
// layout OpTreeV exchanges walk.
type Digest struct {
	buckets int
	nodes   []uint64 // nodes[1:2*buckets]; nodes[0] unused
}

// newDigest builds the inner levels over a leaf vector.
func newDigest(leaves []uint64) *Digest {
	b := len(leaves)
	d := &Digest{buckets: b, nodes: make([]uint64, 2*b)}
	copy(d.nodes[b:], leaves)
	for i := b - 1; i >= 1; i-- {
		d.nodes[i] = innerHash(d.nodes[2*i], d.nodes[2*i+1])
	}
	return d
}

// Buckets reports the leaf count (a power of two).
func (d *Digest) Buckets() int { return d.buckets }

// Root returns the root hash; equal roots mean (up to hash collision)
// identical raw entry spaces.
func (d *Digest) Root() uint64 { return d.nodes[1] }

// Node returns the hash at heap index i, reporting whether i is a
// valid node (1 <= i < 2*Buckets()).
func (d *Digest) Node(i int) (uint64, bool) {
	if i < 1 || i >= 2*d.buckets {
		return 0, false
	}
	return d.nodes[i], true
}

// Leaf returns bucket b's leaf hash (0 for an empty bucket).
func (d *Digest) Leaf(b int) uint64 { return d.nodes[d.buckets+b] }

// merkle is the incremental tree maintenance the engine embeds: every
// write marks its bucket dirty (one atomic store, no shared lock), and
// Digest() lazily rebuilds exactly the dirty leaves before recomputing
// the inner levels. A converged, idle engine answers Digest() from the
// cached snapshot for free.
type merkle struct {
	buckets int
	dirty   []atomic.Bool

	mu     sync.Mutex
	leaves []uint64
	snap   *Digest
}

func (m *merkle) init(buckets int) {
	m.buckets = buckets
	m.dirty = make([]atomic.Bool, buckets)
	m.leaves = make([]uint64, buckets)
	m.snap = newDigest(m.leaves)
}

// touch marks key's bucket dirty; called after any mutation of the raw
// entry space (set, delete, merge, purge, sweep).
func (m *merkle) touch(key string) {
	m.dirty[BucketOf(key, m.buckets)].Store(true)
}

// Digest returns a point-in-time Merkle tree over the raw entry space —
// tombstones included, exactly what RangeBuckets lists. Dirty buckets
// are rebuilt here: each shard holding one is scanned once under its
// own lock, so a digest after scattered writes costs a few shard scans,
// and a digest of an idle engine answers from a cached snapshot. Each
// entry is summed into its leaf as the scan meets it, so a rebuild of
// every leaf allocates O(buckets) however many keys it visits.
func (s *Sharded) Digest() *Digest {
	m := &s.merkle
	m.mu.Lock()
	defer m.mu.Unlock()
	var stale []bool // the buckets to rebuild; nil while none is dirty
	rebuilt := uint64(0)
	for b := range m.dirty {
		if m.dirty[b].Swap(false) {
			if stale == nil {
				stale = make([]bool, m.buckets)
			}
			stale[b], m.leaves[b] = true, 0
			rebuilt++
		}
	}
	if stale == nil {
		return m.snap
	}
	filled := make([]bool, m.buckets)
	s.scanBuckets(stale, func(b int, key string, e Entry) bool {
		m.leaves[b] += leafTerm(key, e)
		filled[b] = true
		return true
	})
	for b := range filled {
		if filled[b] && m.leaves[b] == 0 {
			m.leaves[b] = 1 // 0 is the empty bucket's
		}
	}
	merkleRebuilt.Add(rebuilt)
	m.snap = newDigest(m.leaves)
	return m.snap
}
