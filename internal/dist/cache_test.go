package dist

import (
	"fmt"
	"testing"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/store"
	"pdcedu/internal/trace"
)

// --- readCache unit tests -------------------------------------------

func TestReadCacheBasics(t *testing.T) {
	rc := newReadCache(64)
	if _, ok := rc.get("k"); ok {
		t.Fatal("empty cache reported a hit")
	}
	rc.put("k", store.Entry{Value: []byte("v1"), Version: 10})
	if e, ok := rc.get("k"); !ok || string(e.Value) != "v1" || e.Version != 10 {
		t.Fatalf("get = %+v, %v", e, ok)
	}
	// Older put refused; newer replaces.
	rc.put("k", store.Entry{Value: []byte("old"), Version: 5})
	if e, _ := rc.get("k"); string(e.Value) != "v1" {
		t.Fatalf("older put replaced newer entry: %+v", e)
	}
	rc.put("k", store.Entry{Value: []byte("v2"), Version: 20})
	if e, _ := rc.get("k"); string(e.Value) != "v2" {
		t.Fatalf("newer put did not replace: %+v", e)
	}
	// Tombstone is servable (a definitive miss) and beats a value tie.
	rc.put("k", store.Entry{Version: 30, Tombstone: true})
	if e, ok := rc.get("k"); !ok || !e.Tombstone {
		t.Fatalf("tombstone not served: %+v, %v", e, ok)
	}
	rc.put("k", store.Entry{Value: []byte("tie"), Version: 30})
	if e, _ := rc.get("k"); !e.Tombstone {
		t.Fatalf("value won a version tie against a tombstone: %+v", e)
	}
}

func TestReadCacheSupersede(t *testing.T) {
	rc := newReadCache(64)
	rc.put("k", store.Entry{Value: []byte("v1"), Version: 10})

	// Supersede below the resident version is a no-op.
	if rc.supersede("k", 5) {
		t.Fatal("supersede below resident reported a change")
	}
	if _, ok := rc.get("k"); !ok {
		t.Fatal("no-op supersede evicted the entry")
	}

	// Supersede above floors the slot: unservable, and it blocks any
	// in-flight populate older than the floor.
	if !rc.supersede("k", 20) {
		t.Fatal("supersede above resident reported no change")
	}
	if _, ok := rc.get("k"); ok {
		t.Fatal("floored entry still served")
	}
	rc.put("k", store.Entry{Value: []byte("stale"), Version: 15})
	if _, ok := rc.get("k"); ok {
		t.Fatal("floor let an older populate through")
	}
	// A put at the floor's version (the confirmed outcome of the event
	// that installed it) replaces the floor.
	rc.put("k", store.Entry{Value: []byte("v2"), Version: 20})
	if e, ok := rc.get("k"); !ok || string(e.Value) != "v2" {
		t.Fatalf("equal-version put did not replace floor: %+v, %v", e, ok)
	}

	// Supersede of an absent key installs a blocking floor too.
	rc.supersede("other", 40)
	rc.put("other", store.Entry{Value: []byte("stale"), Version: 39})
	if _, ok := rc.get("other"); ok {
		t.Fatal("absent-key floor let an older populate through")
	}
}

func TestReadCacheEviction(t *testing.T) {
	rc := newReadCache(cacheShards) // one slot per shard
	before := distM.cacheEvict.Value()
	for i := 0; i < 10*cacheShards; i++ {
		rc.put(fmt.Sprintf("key-%d", i), store.Entry{Value: []byte("v"), Version: uint64(i + 1)})
	}
	if n := rc.Len(); n > cacheShards {
		t.Fatalf("cache over capacity: %d > %d", n, cacheShards)
	}
	if distM.cacheEvict.Value() == before {
		t.Fatal("evictions not counted")
	}
}

// --- cluster coherence tests ----------------------------------------

func cachedCluster(t *testing.T, addrs []string, entries int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Addrs:       addrs,
		Replication: 3,
		Timeout:     5 * time.Second,
		ReadCache:   entries,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestCacheHotReads pins the point of the cache: after a write (which
// installs the entry write-through) repeated reads are served without
// a replica round-trip, counted as hits.
func TestCacheHotReads(t *testing.T) {
	_, addrs := startBackends(t, 3)
	c := cachedCluster(t, addrs, 1024)

	if err := c.Set("hot", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	hits := distM.cacheHits.Value()
	for i := 0; i < 10; i++ {
		v, ok, err := c.Get("hot")
		if err != nil || !ok || string(v) != "v1" {
			t.Fatalf("Get = %q, %v, %v", v, ok, err)
		}
	}
	if got := distM.cacheHits.Value() - hits; got != 10 {
		t.Fatalf("cache hits = %d, want 10", got)
	}
}

// TestCacheWriteDeleteCoherence checks the coordinator's own write
// paths: an overwrite is immediately readable at the new value, a
// delete immediately reads as a miss (served as a cached tombstone,
// not a stale value).
func TestCacheWriteDeleteCoherence(t *testing.T) {
	_, addrs := startBackends(t, 3)
	c := cachedCluster(t, addrs, 1024)

	if err := c.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := c.Get("k"); string(v) != "v1" {
		t.Fatalf("Get = %q", v)
	}
	if err := c.Set("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get("k"); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("stale read after overwrite: %q, %v, %v", v, ok, err)
	}
	if _, err := c.Del("k"); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.Get("k"); ok {
		t.Fatalf("stale read after delete: %q", v)
	}
	// The post-delete miss is itself served from cache (tombstone hit).
	hits := distM.cacheHits.Value()
	if _, ok, _ := c.Get("k"); ok {
		t.Fatal("deleted key resurrected")
	}
	if distM.cacheHits.Value() == hits {
		t.Fatal("definitive miss not served from cache")
	}
}

// TestCacheBatchCoherence runs the same contract through the batch
// APIs: MSet supersedes/installs per key, MGet serves and populates,
// MDel leaves cached tombstones.
func TestCacheBatchCoherence(t *testing.T) {
	_, addrs := startBackends(t, 3)
	c := cachedCluster(t, addrs, 1024)

	keys := []string{"b-0", "b-1", "b-2"}
	vals := [][]byte{[]byte("x0"), []byte("x1"), []byte("x2")}
	if err := c.MSet(keys, vals); err != nil {
		t.Fatal(err)
	}
	hits := distM.cacheHits.Value()
	got, err := c.MGet(keys)
	if err != nil || len(got) != 3 {
		t.Fatalf("MGet = %v, %v", got, err)
	}
	if distM.cacheHits.Value()-hits != 3 {
		t.Fatal("MGet did not serve the MSet write-through from cache")
	}
	if err := c.MSet(keys[:1], [][]byte{[]byte("y0")}); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := c.Get("b-0"); string(v) != "y0" {
		t.Fatalf("stale read after MSet overwrite: %q", v)
	}
	if _, err := c.MDel(keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if v, ok, _ := c.Get(k); ok {
			t.Fatalf("stale read after MDel: %s=%q", k, v)
		}
	}
}

// TestCacheHintReplaySupersedes drives the hint-replay invalidation
// end to end: coordinators A and B both write around an unreachable
// replica (each hinting it, quorum still met), B's write being newer.
// After the replica returns, B's replay lands first; A's replay then
// hits Exists-with-newer, which must supersede A's cached copy — A's
// next read returns B's value, not the cached loser.
func TestCacheHintReplaySupersedes(t *testing.T) {
	var srvs []*csnet.Server
	var addrs []string
	for i := 0; i < 3; i++ {
		srv := csnet.NewServer(csnet.NewKVHandler(), 64)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Shutdown)
		srvs = append(srvs, srv)
		addrs = append(addrs, addr)
	}
	a := cachedCluster(t, addrs, 1024)
	b, err := NewCluster(ClusterConfig{Addrs: addrs, Replication: 3, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	down := a.ReplicaSet("k")[0]
	srvs[down].Shutdown() // unreachable, still in both rings: writes hint it
	if err := a.Set("k", []byte("from-a")); err != nil {
		t.Fatal(err)
	}
	if a.Hints(down) == 0 {
		t.Fatal("no hint queued for the unreachable replica")
	}
	if v, _, _ := a.Get("k"); string(v) != "from-a" {
		t.Fatalf("pre-replay read = %q", v)
	}
	time.Sleep(2 * time.Millisecond) // order B's HLC stamp strictly after A's
	if err := b.Set("k", []byte("from-b")); err != nil {
		t.Fatal(err)
	}
	// Revive the replica (empty — both coordinators' hints are its only
	// way back to the key).
	srvs[down] = csnet.NewServer(csnet.NewKVHandler(), 64)
	if _, err := srvs[down].Start(addrs[down]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srvs[down].Shutdown)
	b.replayHints(down) // the replica now holds B's newer version
	// A's replay hits Exists-with-newer, which must invalidate A's
	// cached "from-a".
	inval := distM.cacheInval.Value()
	a.replayHints(down)
	if distM.cacheInval.Value() == inval {
		t.Fatal("hint replay did not invalidate the cache")
	}
	v, ok, err := a.Get("k")
	if err != nil || !ok || string(v) != "from-b" {
		t.Fatalf("post-replay read = %q, %v, %v (stale cache survived replay)", v, ok, err)
	}
}

// TestCacheAntiEntropySupersedes diverges a replica behind the
// coordinator's back (a newer merge landing directly on one engine, as
// another coordinator's write would) and checks that the anti-entropy
// pass streaming the winner also supersedes the stale cached copy.
func TestCacheAntiEntropySupersedes(t *testing.T) {
	handlers, addrs := startBackends(t, 3)
	c := cachedCluster(t, addrs, 1024)

	if err := c.Set("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := c.Get("k"); string(v) != "old" {
		t.Fatalf("prime read = %q", v)
	}
	// Land a newer version on one replica only, bypassing c entirely.
	newer := c.clock.Next() + 1<<20
	if _, applied := handlers[0].Engine().Merge("k", store.Entry{Value: []byte("new"), Version: newer}); !applied {
		t.Fatal("direct merge not applied")
	}
	if _, err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("k")
	if err != nil || !ok || string(v) != "new" {
		t.Fatalf("post-AE read = %q, %v, %v (stale cache survived anti-entropy)", v, ok, err)
	}
}

// TestCacheReadRepairSupersedes pins the invalidation point directly:
// a repair entry at version V floors any cached copy below V, so a
// stale populate racing the repair cannot be served afterwards.
func TestCacheReadRepairSupersedes(t *testing.T) {
	_, addrs := startBackends(t, 3)
	c := cachedCluster(t, addrs, 1024)

	c.cache.put("k", store.Entry{Value: []byte("stale"), Version: 10})
	c.readRepair(trace.Context{}, "k", store.Entry{Value: []byte("fresh"), Version: 20}, nil)
	if e, ok := c.cache.get("k"); ok {
		t.Fatalf("cached entry served past the repair point: %+v", e)
	}
	// And the racing stale populate is blocked by the floor.
	c.cache.put("k", store.Entry{Value: []byte("stale"), Version: 15})
	if _, ok := c.cache.get("k"); ok {
		t.Fatal("stale populate served past the repair point")
	}
}

// TestCacheValuesAreTheCallers checks that no slice crosses the read
// cache in either direction: a value Get or MGet returns is the
// caller's to modify, whether it was a hit or populated the cache, and
// a buffer the caller reuses after Set returned is not what a later
// read serves.
func TestCacheValuesAreTheCallers(t *testing.T) {
	_, addrs := startBackends(t, 3)
	c := cachedCluster(t, addrs, 1024)
	other, err := NewCluster(ClusterConfig{Addrs: addrs, Replication: 3, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()

	// "k" enters the cache through c's Set, "p" through c's first Get
	// (other wrote it): each is read once to populate or hit, mutated,
	// and read again.
	if err := c.Set("k", []byte("orig")); err != nil {
		t.Fatal(err)
	}
	if err := other.Set("p", []byte("orig")); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"k", "p"} {
		for i := 0; i < 3; i++ {
			v, ok, err := c.Get(key)
			if err != nil || !ok || string(v) != "orig" {
				t.Fatalf("Get(%s) #%d = %q, %v, %v, want \"orig\"", key, i, v, ok, err)
			}
			v[0] = 'X'
		}
	}
	for i := 0; i < 3; i++ {
		got, err := c.MGet([]string{"k", "p"})
		if err != nil || string(got["k"]) != "orig" || string(got["p"]) != "orig" {
			t.Fatalf("MGet #%d = %q, %v, want both \"orig\"", i, got, err)
		}
		got["k"][0], got["p"][0] = 'X', 'X'
	}

	// One buffer reused across Sets, as a caller filling it per write
	// would.
	buf := []byte("aaaa")
	if err := c.Set("r", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "Zbbb")
	if err := c.Set("r2", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'Y'
	if v, ok, err := c.Get("r"); err != nil || !ok || string(v) != "aaaa" {
		t.Fatalf("Get(r) after reusing Set's buffer = %q, %v, %v, want \"aaaa\"", v, ok, err)
	}
	if v, ok, err := c.Get("r2"); err != nil || !ok || string(v) != "Zbbb" {
		t.Fatalf("Get(r2) after reusing Set's buffer = %q, %v, %v, want \"Zbbb\"", v, ok, err)
	}
}
