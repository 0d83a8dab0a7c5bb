package dist

import (
	"bytes"
	"container/list"
	"sync"

	"pdcedu/internal/store"
)

// readCache is the coordinator's hot-key cache: a bounded, sharded LRU
// of versioned entries, populated by quorum-read wins and write-through
// on quorum-write success, invalidated *by version* on every write path
// the coordinator sees. The assessment workloads this cluster targets
// are read-heavy with extreme key skew — everyone polls the same
// program/outcome records during an accreditation cycle — so the
// common read costs one shard-local map hit instead of a replica
// round-trip.
//
// Coherence is version-ordered, mirroring the replicas' own LWW merge:
// a resident entry can only ever be replaced by one at least as new,
// and anything that makes the coordinator unsure what the newest state
// is (a failed or partial write, a replica answering Exists-with-newer,
// a hint queued or replayed, an anti-entropy stream) *supersedes* the
// key — the slot degrades to an unservable floor at the superseding
// version, which both forces the next read back to the replicas and
// blocks any in-flight older populate from resurrecting a stale value.
// Three node states:
//
//   - value: a live entry, servable
//   - tombstone: a known delete, servable as a definitive miss
//   - floor: a version watermark, never servable; a put at a version
//     >= the floor replaces it, anything older is refused
//
// Eviction is plain per-shard LRU. Evicting a floor reopens a tiny
// populate race (an in-flight pre-write read could land after the
// floor protecting against it is evicted), so the staleness bound is
// "until the next write, repair, or supersede of that key" — the same
// bound the replicas themselves give a read during read-repair.
type readCache struct {
	shards []cacheShard
	mask   uint32
}

type cacheShard struct {
	mu  sync.Mutex
	ll  *list.List // front = most recent
	m   map[string]*list.Element
	cap int
}

type cacheNode struct {
	key   string
	e     store.Entry
	floor bool
}

// cacheShards is the fixed shard count: enough to keep a hot-key
// workload from serializing on one mutex, small enough that a modest
// cache still gives each shard real capacity.
const cacheShards = 16

// newReadCache sizes a cache holding capacity entries (rounded up to
// give every shard at least one slot). capacity <= 0 returns nil — a
// nil *readCache is the disabled cache, and every method tolerates it.
func newReadCache(capacity int) *readCache {
	if capacity <= 0 {
		return nil
	}
	per := (capacity + cacheShards - 1) / cacheShards
	c := &readCache{shards: make([]cacheShard, cacheShards), mask: cacheShards - 1}
	for i := range c.shards {
		c.shards[i] = cacheShard{ll: list.New(), m: make(map[string]*list.Element, per), cap: per}
	}
	return c
}

// shardOf picks a key's shard by FNV-1a.
func (c *readCache) shardOf(key string) *cacheShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return &c.shards[h&c.mask]
}

// get returns the cached entry for key. ok means the entry is
// *servable*: a live value or a known tombstone (the caller reports a
// tombstone as a definitive miss without touching the replicas).
// Floors return ok=false. The value is the cache's own: copy it before
// it leaves the coordinator.
func (c *readCache) get(key string) (store.Entry, bool) {
	if c == nil {
		return store.Entry{}, false
	}
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		return store.Entry{}, false
	}
	n := el.Value.(*cacheNode)
	if n.floor {
		return store.Entry{}, false
	}
	s.ll.MoveToFront(el)
	return n.e, true
}

// put installs a quorum-confirmed entry (value or tombstone). The
// version order is absolute: a resident strictly newer than e refuses
// the put, a version tie resolves exactly as the replicas' Entry.Wins
// does (tombstone beats value; a floor — which represents "at least
// this version exists somewhere" — is replaced by the confirmed entry
// that proves what it is). The cache keeps its own copy of the value,
// so the caller's buffer stays the caller's.
func (c *readCache) put(key string, e store.Entry) {
	if c == nil {
		return
	}
	e.Value = bytes.Clone(e.Value)
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		n := el.Value.(*cacheNode)
		if n.e.Version > e.Version {
			return
		}
		if n.e.Version == e.Version && !n.floor && n.e.Tombstone && !e.Tombstone {
			return
		}
		n.e, n.floor = e, false
		s.ll.MoveToFront(el)
		return
	}
	s.insert(&cacheNode{key: key, e: e})
}

// supersede invalidates key at ver: whatever the cache holds below ver
// becomes an unservable floor (installed even when the key is absent,
// to block an in-flight older populate). A resident already at or
// above ver is untouched — it is at least as new as the event being
// reported. Returns whether the call actually changed the slot, so
// callers can count real invalidations rather than no-ops.
func (c *readCache) supersede(key string, ver uint64) bool {
	if c == nil {
		return false
	}
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		n := el.Value.(*cacheNode)
		if n.e.Version >= ver {
			return false
		}
		n.e, n.floor = store.Entry{Version: ver}, true
		s.ll.MoveToFront(el)
		return true
	}
	s.insert(&cacheNode{key: key, e: store.Entry{Version: ver}, floor: true})
	return true
}

// insert adds a node to the front of the shard, evicting from the back
// past capacity. Caller holds the shard lock.
func (s *cacheShard) insert(n *cacheNode) {
	s.m[n.key] = s.ll.PushFront(n)
	for s.ll.Len() > s.cap {
		back := s.ll.Back()
		delete(s.m, back.Value.(*cacheNode).key)
		s.ll.Remove(back)
		distM.cacheEvict.Inc()
	}
}

// Len reports the resident node count (floors included).
func (c *readCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}
