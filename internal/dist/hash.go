package dist

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// ConsistentHash is a consistent-hash ring with virtual nodes. Keys map
// to the first virtual node clockwise from their hash, so growing the
// ring by a node moves only ~K/(n+1) of K keys instead of rehashing
// everything, and taking one node out of placement moves only the ~K/n
// keys it owned.
//
// The ring is fixed once built, and safe for any number of readers.
// Nodes are small integer indices, and a node's virtual-node positions
// are a pure function of its index, so membership is not the ring's to
// hold: PickN walks the one ring past the nodes a caller's down set
// names. A node marked down loses exactly its keys to their next live
// successors, and clearing the bit hands exactly those keys back.
type ConsistentHash struct {
	ring []ringEntry // sorted by (hash, node), a total order
}

type ringEntry struct {
	hash uint64
	node int
}

// NewConsistentHash creates a ring of n nodes with the given number of
// virtual nodes each (vnodes <= 0 defaults to 64; more virtual nodes
// means a smoother key distribution at the cost of a bigger ring).
func NewConsistentHash(n, vnodes int) *ConsistentHash {
	n = max(n, 1)
	if vnodes <= 0 {
		vnodes = 64
	}
	ring := make([]ringEntry, 0, n*vnodes)
	for node := 0; node < n; node++ {
		for v := 0; v < vnodes; v++ {
			ring = append(ring, ringEntry{fnv64a(fmt.Sprintf("node-%d-vnode-%d", node, v)), node})
		}
	}
	slices.SortFunc(ring, func(a, b ringEntry) int {
		return cmp.Or(cmp.Compare(a.hash, b.hash), cmp.Compare(a.node, b.node))
	})
	return &ConsistentHash{ring: ring}
}

// start is the index of the first virtual node clockwise from key's
// hash.
func (c *ConsistentHash) start(key string) int {
	h := fnv64a(key)
	i := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= h })
	if i == len(c.ring) {
		i = 0 // wrap around the ring
	}
	return i
}

// Pick returns the node owning key with every node live: the first
// virtual node clockwise from the key's hash.
func (c *ConsistentHash) Pick(key string) int { return c.ring[c.start(key)].node }

// PickN returns the first n distinct nodes clockwise from the key's
// hash that down does not mark (nil: every node is live) — the key's
// replica set, primary first. Fewer than n nodes are returned when
// fewer are live, and nil when none is. Marking a node down deletes it
// from this sequence without reordering the rest, so the surviving
// members of a replica set stay in the set while down ones are replaced
// by their successors.
func (c *ConsistentHash) PickN(key string, n int, down []bool) []int {
	if n < 1 {
		return nil
	}
	if out := c.appendPickN(make([]int, 0, n), key, n, down); len(out) > 0 {
		return out
	}
	return nil
}

// appendPickN appends PickN's nodes to dst and returns the extended
// slice.
func (c *ConsistentHash) appendPickN(dst []int, key string, n int, down []bool) []int {
	at := len(dst)
	for i, start := 0, c.start(key); i < len(c.ring) && len(dst)-at < n; i++ {
		node := c.ring[(start+i)%len(c.ring)].node
		if node < len(down) && down[node] || slices.Contains(dst[at:], node) {
			continue
		}
		dst = append(dst, node)
	}
	return dst
}

// fnv64a is FNV-1a without the hash.Hash64 allocation, followed by a
// murmur3-style finalizer: raw FNV diffuses the sequential keys typical
// of workloads ("user:17") poorly into the high bits that order the
// ring, which skews placement no matter how many virtual nodes are
// used. The Cluster router walks no ring per key: it reads the owners
// table each membership change builds from the ring.
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
