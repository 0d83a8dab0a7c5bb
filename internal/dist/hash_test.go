package dist

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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

// TestConsistentHashRebalanceBound checks the defining property: an
// (n+1)-node ring places at most ~K/n of K keys (expected K/(n+1))
// differently from the n-node ring, and every such key on the new node.
func TestConsistentHashRebalanceBound(t *testing.T) {
	const n, keys = 4, 10000
	small, grown := NewConsistentHash(n, 128), NewConsistentHash(n+1, 128)
	if got := len(grown.PickN("k", 99, nil)); got != n+1 {
		t.Fatalf("grown ring holds %d nodes, want %d", got, n+1)
	}
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		before, after := small.Pick(key), grown.Pick(key)
		if after != before {
			moved++
			if after != n {
				t.Fatalf("%s moved from node %d to old node %d, not the new node", key, before, after)
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
// marking one node of n down moves at most ~K/n of K keys (expected
// K/n, bounded loosely at 2K/n to absorb vnode variance), and the only
// keys that move are the ones the down node owned.
func TestConsistentHashRemoveNodeBound(t *testing.T) {
	const n, keys, victim = 5, 10000, 2
	ring := NewConsistentHash(n, 128)
	down := make([]bool, n)
	down[victim] = true
	if got := len(ring.PickN("k", 99, down)); got != n-1 {
		t.Fatalf("%d nodes live with one down, want %d", got, n-1)
	}
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		before, after := ring.PickN(key, 1, nil)[0], ring.PickN(key, 1, down)[0]
		if after == victim {
			t.Fatalf("%s still maps to the down node", key)
		}
		if after != before {
			moved++
			if before != victim {
				t.Fatalf("%s moved from surviving node %d to %d", key, before, after)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved off the down node")
	}
	if bound := 2 * keys / n; moved > bound {
		t.Errorf("%d of %d keys moved, want <= 2K/n = %d", moved, keys, bound)
	}
}

// TestConsistentHashRestoreNode checks that readmitting a down node
// reproduces exactly the placement from before it went down: on the
// ring, with its bit cleared, and in the routes a Cluster publishes.
func TestConsistentHashRestoreNode(t *testing.T) {
	const n, keys = 4, 5000
	ring := NewConsistentHash(n, 64)
	downed, restored := make([]bool, n), make([]bool, n)
	downed[1] = true
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := ring.PickN(key, 3, nil)
		if slices.Contains(ring.PickN(key, 3, downed), 1) {
			t.Fatalf("%s placed on down node 1", key)
		}
		if after := ring.PickN(key, 3, restored); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s on %v after restore, was on %v", key, after, before)
		}
	}

	c := routeCluster(t, n, 3, 256)
	fresh := c.route.Load()
	if c.setDown(1, false) {
		t.Fatal("clearing a live backend's bit reported a transition")
	}
	if !c.setDown(1, true) || !c.setDown(1, false) {
		t.Fatal("down then up reported no transition")
	}
	if got := c.route.Load(); got.live != n || !reflect.DeepEqual(got.owners, fresh.owners) {
		t.Fatalf("after down and up: %d live, owners equal to the fresh route: %v",
			got.live, reflect.DeepEqual(got.owners, fresh.owners))
	}
}

// TestConsistentHashPickN checks the replica-set walk: distinct nodes,
// primary first, survivors stable when another member goes down.
func TestConsistentHashPickN(t *testing.T) {
	const n = 5
	ring := NewConsistentHash(n, 64)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		set := ring.PickN(key, 3, nil)
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
	if got := len(ring.PickN("k", 99, nil)); got != n {
		t.Errorf("PickN(k, 99) returned %d nodes, want %d", got, n)
	}
	// Every node down: no replica set at all.
	if got := ring.PickN("k", 3, []bool{true, true, true, true, true}); got != nil {
		t.Errorf("PickN with every node down = %v, want nil", got)
	}
	// A member of a set going down keeps the survivors, in order.
	key := "stability-key"
	before := ring.PickN(key, 3, nil)
	down := make([]bool, n)
	down[before[1]] = true
	after := ring.PickN(key, 3, down)
	if len(after) != 3 || after[0] != before[0] || after[1] != before[2] {
		t.Errorf("PickN with %d down: %v -> %v, want survivors %d,%d first",
			before[1], before, after, before[0], before[2])
	}
	for _, s := range after {
		if s == before[1] {
			t.Errorf("down node %d still in replica set %v", before[1], after)
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
	if got := ring.PickN("anything", 99, nil); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("PickN on a ring of n = 0 = %v, want clamp to the one node 0", got)
	}
	if got := len(ring.ring); got != 64 {
		t.Errorf("ring of vnodes = 0 holds %d virtual nodes, want the default 64", got)
	}
	if got := ring.Pick("anything"); got != 0 {
		t.Errorf("single-node ring Pick = %d, want 0", got)
	}
}

// routeCluster is a Cluster over n backends that are never dialed, for
// tests that drive membership through setDown and read the published
// routes: setDown schedules no rebalance, so nothing touches a socket.
func routeCluster(t testing.TB, n, rf, buckets int) *Cluster {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", 1+i)
	}
	c, err := NewCluster(ClusterConfig{Addrs: addrs, Replication: rf, Buckets: buckets})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// refOwners is the placement the ring gave while it was mutable,
// rebuilt from scratch: hash every live node's virtual nodes, sort them
// by hash, and walk what is left clockwise from each bucket's position.
func refOwners(c *Cluster, down []bool) [][]int {
	const vnodes = 64
	var ring []ringEntry
	for node := range down {
		if down[node] {
			continue
		}
		for v := 0; v < vnodes; v++ {
			ring = append(ring, ringEntry{fnv64a(fmt.Sprintf("node-%d-vnode-%d", node, v)), node})
		}
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].hash < ring[j].hash })
	owners := make([][]int, c.buckets)
	if len(ring) == 0 {
		return owners
	}
	for b, key := range c.bucketKeys {
		h := fnv64a(key)
		start := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= h })
		row := make([]int, 0, c.rf)
		for i := 0; i < len(ring) && len(row) < c.rf; i++ {
			if node := ring[(start+i)%len(ring)].node; !slices.Contains(row, node) {
				row = append(row, node)
			}
		}
		owners[b] = row
	}
	return owners
}

// routeErr checks one route snapshot is whole: no down backend in any
// owners row, live the count of backends not down, and every row what
// the reference placement gives for that down set.
func routeErr(c *Cluster, r *route) error {
	live := 0
	for _, d := range r.down {
		if !d {
			live++
		}
	}
	if r.live != live {
		return fmt.Errorf("route down %v says %d live, want %d", r.down, r.live, live)
	}
	want := refOwners(c, r.down)
	for b, row := range r.owners {
		for _, o := range row {
			if r.down[o] {
				return fmt.Errorf("route down %v: bucket %d routes to down backend %d (%v)", r.down, b, o, row)
			}
		}
		if !reflect.DeepEqual(row, want[b]) {
			return fmt.Errorf("route down %v: bucket %d routes to %v, reference placement %v", r.down, b, row, want[b])
		}
	}
	return nil
}

// TestRoutePlacementMatchesReference drives random down sets through
// setDown, one flip at a time, and requires every published route to
// place each bucket exactly where the mutable ring did (refOwners).
func TestRoutePlacementMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{3, 5, 8} {
		for _, rf := range []int{1, 2, 3} {
			c := routeCluster(t, n, rf, 256)
			if err := routeErr(c, c.route.Load()); err != nil {
				t.Fatalf("n=%d rf=%d: %v", n, rf, err)
			}
			want := make([]bool, n)
			for step := 0; step < 40; step++ {
				b, down := rng.Intn(n), rng.Intn(2) == 0
				if got := c.setDown(b, down); got != (want[b] != down) {
					t.Fatalf("n=%d rf=%d: setDown(%d, %v) from %v reported %v", n, rf, b, down, want, got)
				}
				want[b] = down
				r := c.route.Load()
				if !reflect.DeepEqual(r.down, want) {
					t.Fatalf("n=%d rf=%d: route down %v, want %v", n, rf, r.down, want)
				}
				if err := routeErr(c, r); err != nil {
					t.Fatalf("n=%d rf=%d: %v", n, rf, err)
				}
			}
		}
	}
}

// TestOwnersTableTracksRing flips backends down and up from several
// goroutines at once while a reader checks every route it loads — no
// down backend in any owners row, the live count its down set's, every
// row the reference placement's — and then checks the route the flips
// left: a table published apart from its down set would route a bucket
// to the wrong nodes until the next flip.
func TestOwnersTableTracksRing(t *testing.T) {
	_, c := startKVCluster(t, 5, ClusterConfig{Replication: 3, Buckets: 64}, nil)
	if err := routeErr(c, c.route.Load()); err != nil {
		t.Fatalf("fresh cluster: %v", err)
	}
	var done atomic.Bool
	checked := make(chan error, 1)
	go func() {
		var last *route
		routes := 0
		for !done.Load() {
			if r := c.route.Load(); r != last {
				if err := routeErr(c, r); err != nil {
					checked <- err
					return
				}
				last, routes = r, routes+1
			}
			runtime.Gosched()
		}
		t.Logf("reader checked %d routes", routes)
		checked <- nil
	}()
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
	done.Store(true)
	if err := <-checked; err != nil {
		t.Fatalf("during concurrent flips: %v", err)
	}
	r := c.route.Load()
	if err := routeErr(c, r); err != nil {
		t.Fatalf("after concurrent flips: %v", err)
	}
	if want := []bool{true, false, true, false, false}; !reflect.DeepEqual(r.down, want) {
		t.Fatalf("route down %v after the flips, want %v", r.down, want)
	}
	if c.Live() != 3 || !c.IsDown(0) || c.IsDown(1) {
		t.Fatalf("Live %d, IsDown(0) %v, IsDown(1) %v: the accessors disagree with the route", c.Live(), c.IsDown(0), c.IsDown(1))
	}
	if got := len(c.replicaSet("any-key")); got != 3 {
		t.Fatalf("replica set has %d members with 3 of 5 backends live, want 3", got)
	}
	for _, o := range c.replicaSet("any-key") {
		if o == 0 || o == 2 {
			t.Fatalf("replica set %v includes a backend that is marked down", c.replicaSet("any-key"))
		}
	}
}

// BenchmarkRoute is the routing rebuild's bill: one MarkDown and one
// MarkUp republish (setDown, without the hint replay and rebalance
// they schedule) on 5 backends x 1024 buckets, no network.
func BenchmarkRoute(b *testing.B) {
	c := routeCluster(b, 5, 3, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.setDown(2, true)
		c.setDown(2, false)
	}
}
