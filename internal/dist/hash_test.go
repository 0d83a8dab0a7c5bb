package dist

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestConsistentHashPickStable(t *testing.T) {
	ring := NewConsistentHash(5, 64)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		first := ring.Pick(key)
		if first < 0 || first >= 5 {
			t.Fatalf("Pick(%q) = %d, out of range", key, first)
		}
		for j := 0; j < 3; j++ {
			if got := ring.Pick(key); got != first {
				t.Fatalf("Pick(%q) unstable: %d then %d", key, first, got)
			}
		}
	}
}

func TestConsistentHashDistribution(t *testing.T) {
	const n, keys = 8, 40000
	ring := NewConsistentHash(n, 128)
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		counts[ring.Pick(fmt.Sprintf("user:%d:%d", i%7, i))]++
	}
	ideal := keys / n
	for node, c := range counts {
		if c < ideal/2 || c > 2*ideal {
			t.Errorf("node %d owns %d keys, want within [%d,%d] of ideal %d",
				node, c, ideal/2, 2*ideal, ideal)
		}
	}
}

// TestConsistentHashRebalanceBound checks the defining property: adding
// one node to an n-node ring moves at most ~K/n of K keys (expected
// K/(n+1)), and every moved key lands on the new node.
func TestConsistentHashRebalanceBound(t *testing.T) {
	const n, keys = 4, 10000
	ring := NewConsistentHash(n, 128)
	before := make([]int, keys)
	for i := range before {
		before[i] = ring.Pick(fmt.Sprintf("key-%d", i))
	}
	added := ring.AddNode()
	if added != n {
		t.Fatalf("AddNode returned %d, want %d", added, n)
	}
	if ring.Nodes() != n+1 {
		t.Fatalf("Nodes() = %d, want %d", ring.Nodes(), n+1)
	}
	moved := 0
	for i := range before {
		after := ring.Pick(fmt.Sprintf("key-%d", i))
		if after != before[i] {
			moved++
			if after != added {
				t.Fatalf("key-%d moved from node %d to old node %d, not the new node", i, before[i], after)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved to the new node")
	}
	if bound := keys / n; moved > bound {
		t.Errorf("%d of %d keys moved, want <= K/n = %d", moved, keys, bound)
	}
}

// TestConsistentHashRemoveNodeBound checks the eviction property:
// removing one node from an n-node ring moves at most ~K/n of K keys
// (expected K/n, bounded loosely at 2K/n to absorb vnode variance), and
// the only keys that move are the ones the removed node owned.
func TestConsistentHashRemoveNodeBound(t *testing.T) {
	const n, keys = 5, 10000
	ring := NewConsistentHash(n, 128)
	before := make([]int, keys)
	for i := range before {
		before[i] = ring.Pick(fmt.Sprintf("key-%d", i))
	}
	const victim = 2
	if !ring.RemoveNode(victim) {
		t.Fatal("RemoveNode(2) reported absent")
	}
	if ring.RemoveNode(victim) {
		t.Fatal("double RemoveNode reported present")
	}
	if ring.Nodes() != n-1 {
		t.Fatalf("Nodes() = %d after removal, want %d", ring.Nodes(), n-1)
	}
	moved := 0
	for i := range before {
		after := ring.Pick(fmt.Sprintf("key-%d", i))
		if after == victim {
			t.Fatalf("key-%d still maps to the removed node", i)
		}
		if after != before[i] {
			moved++
			if before[i] != victim {
				t.Fatalf("key-%d moved from surviving node %d to %d", i, before[i], after)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved off the removed node")
	}
	if bound := 2 * keys / n; moved > bound {
		t.Errorf("%d of %d keys moved, want <= 2K/n = %d", moved, keys, bound)
	}
}

// TestConsistentHashRestoreNode checks that readmitting an evicted node
// reproduces exactly the pre-removal placement.
func TestConsistentHashRestoreNode(t *testing.T) {
	const n, keys = 4, 5000
	ring := NewConsistentHash(n, 64)
	before := make([]int, keys)
	for i := range before {
		before[i] = ring.Pick(fmt.Sprintf("key-%d", i))
	}
	if ring.RestoreNode(1) {
		t.Fatal("RestoreNode of a live node reported restored")
	}
	ring.RemoveNode(1)
	if !ring.RestoreNode(1) {
		t.Fatal("RestoreNode of an evicted node reported absent")
	}
	if ring.Nodes() != n {
		t.Fatalf("Nodes() = %d after restore, want %d", ring.Nodes(), n)
	}
	for i := range before {
		if after := ring.Pick(fmt.Sprintf("key-%d", i)); after != before[i] {
			t.Fatalf("key-%d on node %d after restore, was on %d", i, after, before[i])
		}
	}
}

// TestConsistentHashPickN checks the replica-set walk: distinct nodes,
// primary first, survivors stable under removal of another member.
func TestConsistentHashPickN(t *testing.T) {
	const n = 5
	ring := NewConsistentHash(n, 64)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		set := ring.PickN(key, 3)
		if len(set) != 3 {
			t.Fatalf("PickN(%q, 3) = %v, want 3 nodes", key, set)
		}
		if set[0] != ring.Pick(key) {
			t.Fatalf("PickN(%q)[0] = %d, want primary %d", key, set[0], ring.Pick(key))
		}
		seen := map[int]bool{}
		for _, s := range set {
			if s < 0 || s >= n || seen[s] {
				t.Fatalf("PickN(%q, 3) = %v: out of range or duplicate", key, set)
			}
			seen[s] = true
		}
	}
	// Ask for more replicas than nodes: every node once.
	if got := len(ring.PickN("k", 99)); got != n {
		t.Errorf("PickN(k, 99) returned %d nodes, want %d", got, n)
	}
	// Removing one member of a set keeps the survivors, in order.
	key := "stability-key"
	before := ring.PickN(key, 3)
	ring.RemoveNode(before[1])
	after := ring.PickN(key, 3)
	if len(after) != 3 || after[0] != before[0] || after[1] != before[2] {
		t.Errorf("PickN after removing %d: %v -> %v, want survivors %d,%d first",
			before[1], before, after, before[0], before[2])
	}
	for _, s := range after {
		if s == before[1] {
			t.Errorf("removed node %d still in replica set %v", before[1], after)
		}
	}
}

func TestConsistentHashConcurrentPick(t *testing.T) {
	ring := NewConsistentHash(4, 32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if s := ring.Pick(fmt.Sprintf("g%d-k%d", g, i)); s < 0 || s >= 4 {
					t.Errorf("Pick out of range: %d", s)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestConsistentHashDefaults(t *testing.T) {
	ring := NewConsistentHash(0, 0)
	if ring.Nodes() != 1 {
		t.Errorf("Nodes() = %d, want clamp to 1", ring.Nodes())
	}
	if got := ring.Pick("anything"); got != 0 {
		t.Errorf("single-node ring Pick = %d, want 0", got)
	}
}

// TestOwnersTableTracksRing flips backends down and up from several
// goroutines at once and then checks the published owners table row by
// row against the ring it was built from: a table published out of
// order with its ring change would route a bucket to the wrong nodes
// until the next flip.
func TestOwnersTableTracksRing(t *testing.T) {
	_, c := startKVCluster(t, 5, ClusterConfig{Replication: 3, Buckets: 64}, nil)
	check := func(when string) {
		t.Helper()
		for b := 0; b < c.buckets; b++ {
			if got, want := c.ownersOf(b), c.ring.PickN(c.bucketKeys[b], c.rf); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: bucket %d routes to %v, ring says %v", when, b, got, want)
			}
		}
	}
	check("fresh cluster")
	var wg sync.WaitGroup
	for b := 0; b < 4; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c.MarkDown(b)
				c.MarkUp(b)
			}
			if b%2 == 0 {
				c.MarkDown(b)
			}
		}(b)
	}
	wg.Wait()
	check("after concurrent flips")
	if got := len(c.replicaSet("any-key")); got != 3 {
		t.Fatalf("replica set has %d members with 3 of 5 backends live, want 3", got)
	}
	for _, o := range c.replicaSet("any-key") {
		if o == 0 || o == 2 {
			t.Fatalf("replica set %v includes a backend that is marked down", c.replicaSet("any-key"))
		}
	}
}
