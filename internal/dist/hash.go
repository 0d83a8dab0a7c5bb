package dist

import (
	"fmt"
	"sort"
	"sync"
)

// ConsistentHash is a consistent-hash ring with virtual nodes. Keys map
// to the first virtual node clockwise from their hash, so adding a node
// moves only ~K/(n+1) of K keys instead of rehashing everything, and
// removing one moves only the ~K/n keys it owned.
//
// Nodes are small integer indices. RemoveNode and RestoreNode let a
// membership layer evict dead nodes and readmit recovered ones: a
// node's virtual-node positions are a pure function of its index, so a
// restore reproduces exactly the pre-removal placement.
type ConsistentHash struct {
	mu      sync.RWMutex
	vnodes  int
	next    int          // next index AddNode assigns
	removed map[int]bool // evicted node indices
	ring    []ringEntry  // sorted by hash, live nodes only
}

type ringEntry struct {
	hash uint64
	node int
}

// NewConsistentHash creates a ring of n nodes with the given number of
// virtual nodes each (vnodes <= 0 defaults to 64; more virtual nodes
// means a smoother key distribution at the cost of a bigger ring).
func NewConsistentHash(n, vnodes int) *ConsistentHash {
	if n < 1 {
		n = 1
	}
	if vnodes <= 0 {
		vnodes = 64
	}
	c := &ConsistentHash{vnodes: vnodes, removed: map[int]bool{}}
	for i := 0; i < n; i++ {
		c.addLocked(i)
	}
	c.next = n
	sort.Slice(c.ring, func(i, j int) bool { return c.ring[i].hash < c.ring[j].hash })
	return c
}

// addLocked appends the virtual nodes for one node without re-sorting.
func (c *ConsistentHash) addLocked(node int) {
	for v := 0; v < c.vnodes; v++ {
		h := fnv64a(fmt.Sprintf("node-%d-vnode-%d", node, v))
		c.ring = append(c.ring, ringEntry{hash: h, node: node})
	}
}

// AddNode extends the ring by one node and returns its index.
func (c *ConsistentHash) AddNode() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	node := c.next
	c.addLocked(node)
	c.next++
	sort.Slice(c.ring, func(i, j int) bool { return c.ring[i].hash < c.ring[j].hash })
	return node
}

// RemoveNode evicts a node from the ring: only the keys it owned move,
// each to the next live node clockwise (~K/n of K keys in expectation).
// It reports whether the node was present. The index stays reserved so
// RestoreNode can readmit the same node later.
func (c *ConsistentHash) RemoveNode(node int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if node < 0 || node >= c.next || c.removed[node] {
		return false
	}
	c.removed[node] = true
	kept := c.ring[:0]
	for _, e := range c.ring {
		if e.node != node {
			kept = append(kept, e)
		}
	}
	c.ring = kept
	return true
}

// RestoreNode readmits a previously removed node. Its virtual nodes
// land on exactly the positions they occupied before removal, so the
// keys that moved away at eviction move back, and only those. It
// reports whether the node was in the removed set.
func (c *ConsistentHash) RestoreNode(node int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.removed[node] {
		return false
	}
	delete(c.removed, node)
	c.addLocked(node)
	sort.Slice(c.ring, func(i, j int) bool { return c.ring[i].hash < c.ring[j].hash })
	return true
}

// Nodes reports the current live node count.
func (c *ConsistentHash) Nodes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.next - len(c.removed)
}

// Pick returns the node owning key: the first virtual node clockwise
// from the key's hash. It returns -1 when every node has been removed.
func (c *ConsistentHash) Pick(key string) int {
	h := fnv64a(key)
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.ring) == 0 {
		return -1
	}
	i := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= h })
	if i == len(c.ring) {
		i = 0 // wrap around the ring
	}
	return c.ring[i].node
}

// PickN returns the first n distinct nodes clockwise from the key's
// hash — the key's replica set, primary first. Fewer than n nodes are
// returned when the ring holds fewer live nodes. Removing a node from
// the ring deletes it from this sequence without reordering the
// remaining nodes, so the surviving members of a replica set stay in
// the set while dead ones are replaced by their successors.
func (c *ConsistentHash) PickN(key string, n int) []int {
	h := fnv64a(key)
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.ring) == 0 || n < 1 {
		return nil
	}
	start := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= h })
	out := make([]int, 0, n)
	for i := 0; i < len(c.ring) && len(out) < n; i++ {
		node := c.ring[(start+i)%len(c.ring)].node
		seen := false
		for _, o := range out {
			if o == node {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, node)
		}
	}
	return out
}

// fnv64a is FNV-1a without the hash.Hash64 allocation, followed by a
// murmur3-style finalizer: raw FNV diffuses the sequential keys typical
// of workloads ("user:17") poorly into the high bits that order the
// ring, which skews placement no matter how many virtual nodes are
// used. The Cluster router walks no ring per key: it reads the owners
// table reroute builds from the ring.
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
