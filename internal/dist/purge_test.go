package dist

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/store"
)

// plantLeftover writes key through c on a three-backend rf=2 cluster
// and merges an older copy of it onto the one backend that does not own
// its bucket — the copy a ring change leaves behind. It returns the
// key's owners, that non-owner, and the owners' entry.
func plantLeftover(t *testing.T, kvs []*csnet.KVHandler, c *Cluster, key string) (owners []int, stray int, base store.Entry) {
	t.Helper()
	if err := c.Set(key, []byte("current")); err != nil {
		t.Fatal(err)
	}
	owners = slices.Clone(c.ReplicaSet(key))
	stray = slices.IndexFunc([]int{0, 1, 2}, func(b int) bool { return !slices.Contains(owners, b) })
	_, base, _ = kvs[owners[0]].Engine().AppendLoad(nil, key)
	kvs[stray].Engine().Merge(key, store.Entry{Value: []byte("leftover"), Version: base.Version - 1})
	return owners, stray, base
}

// TestAntiEntropyRefusedListingIsNoTarget pins the listing rule: a
// backend that answers its OpRangeV with StatusBusy said nothing about
// what it holds, so it is left out of the group's targets — where a
// pass that kept it would book every listed key as a hole on it and
// send a backend that has just shed load one merge per key.
func TestAntiEntropyRefusedListingIsNoTarget(t *testing.T) {
	const n, keys, busy = 3, 500, 2
	var merges atomic.Int32
	kvs, _, c := startWrappedKVCluster(t, n, ClusterConfig{Replication: n, WriteQuorum: n}, nil,
		func(i int, kv *csnet.KVHandler) csnet.Handler {
			if i != busy {
				return kv
			}
			return csnet.HandlerFunc(func(req csnet.Request) csnet.Response {
				switch req.Op {
				case csnet.OpRangeV:
					return csnet.Response{Status: csnet.StatusBusy}
				case csnet.OpMerge:
					merges.Add(1)
				}
				return kv.Serve(req)
			})
		})
	ks := make([]string, keys)
	vs := make([][]byte, keys)
	for i := range ks {
		ks[i] = fmt.Sprintf("graded-%d", i)
		vs[i] = []byte("pass")
	}
	if err := c.MSet(ks, vs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i += 10 {
		lose(kvs[1].Engine(), ks[i])
	}

	st, err := c.Rebalance()
	if !errors.Is(err, csnet.ErrBusy) {
		t.Fatalf("pass error = %v, want the shed listing reported", err)
	}
	if st.Streamed != keys/10 {
		t.Errorf("pass streamed %d, want the %d holes", st.Streamed, keys/10)
	}
	if got := merges.Load(); got != 0 {
		t.Errorf("%d merges sent to the backend that refused its listing (listed %d keys), want 0",
			got, st.KeysListed)
	}
	for i := 0; i < keys; i += 10 {
		if _, ok := kvs[1].Engine().Get(ks[i]); !ok {
			t.Fatalf("hole %q not repaired", ks[i])
		}
	}
}

// TestAntiEntropyScheduledRescue is the stranded-copy job end to end
// at n=4, rf=2, through the scheduled passes alone: a key written while
// every owner of its bucket is out of the ring lands on the stand-ins;
// once the owners are back it is served from them, and the stand-ins
// hold nothing in that bucket.
func TestAntiEntropyScheduledRescue(t *testing.T) {
	kvs, c := startKVCluster(t, 4, ClusterConfig{Replication: 2}, nil)
	const key = "exam-2026"
	owners := slices.Clone(c.ReplicaSet(key))
	bucket := store.BucketOf(key, c.buckets)
	for _, o := range owners {
		c.MarkDown(o)
	}
	standIns := slices.Clone(c.ReplicaSet(key))
	if err := c.Set(key, []byte("A")); err != nil {
		t.Fatalf("Set with every owner down: %v", err)
	}
	for _, s := range standIns {
		if _, ok := kvs[s].Engine().Get(key); !ok || slices.Contains(owners, s) {
			t.Fatalf("stand-ins %v (owners %v): backend %d holds %v", standIns, owners, s, ok)
		}
	}
	for _, o := range owners {
		c.MarkUp(o)
	}

	waitUntil(t, 10*time.Second, "the rescue and purge of the stranded key", func() bool {
		for _, o := range owners {
			if _, ok := kvs[o].Engine().Get(key); !ok {
				return false
			}
		}
		for _, s := range standIns {
			if kvs[s].Engine().Digest().Leaf(bucket) != 0 {
				return false
			}
		}
		return true
	})
	if v, ok, err := c.Get(key); err != nil || !ok || string(v) != "A" {
		t.Fatalf("Get after the heal = %q %v %v, want A", v, ok, err)
	}
}

// TestAntiEntropyPurgeKeepsNewerWrite races the purge: a newer OpMerge
// of the listed key reaches the non-owner between its OpRangeV reply
// and the purge. The purge names the listed version, so the newer entry
// survives it; the next pass rescues that entry onto the owners and
// only then removes it.
func TestAntiEntropyPurgeKeepsNewerWrite(t *testing.T) {
	const key = "late-grade"
	var (
		mu      sync.Mutex
		raced   bool
		newer   store.Entry
		purges  int
		strayAt = -1
	)
	kvs, _, c := startWrappedKVCluster(t, 3, ClusterConfig{Replication: 2}, nil,
		func(i int, kv *csnet.KVHandler) csnet.Handler {
			return csnet.HandlerFunc(func(req csnet.Request) csnet.Response {
				resp := kv.Serve(req)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case i != strayAt:
				case req.Op == csnet.OpRangeV && !raced:
					raced = true
					kv.Serve(csnet.MergeRequest(key, newer, req.Trace))
				case req.Op == csnet.OpPurgeV:
					purges++
				}
				return resp
			})
		})
	owners, stray, base := plantLeftover(t, kvs, c, key)
	mu.Lock()
	strayAt, newer = stray, store.Entry{Value: []byte("regraded"), Version: base.Version + 1}
	mu.Unlock()

	st, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if _, got, ok := kvs[stray].Engine().AppendLoad(nil, key); !ok || got.Version != newer.Version {
		t.Fatalf("non-owner after the racing purge = %+v %v, want the newer entry kept", got, ok)
	}
	if purges != 1 || st.Purged != 0 {
		t.Fatalf("%d purges sent, %d applied; want the one for the listed copy, declined", purges, st.Purged)
	}

	if _, err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	for _, o := range owners {
		if _, got, _ := kvs[o].Engine().AppendLoad(nil, key); string(got.Value) != "regraded" {
			t.Fatalf("owner %d = %+v, want the rescued newer entry", o, got)
		}
	}
	if _, got, ok := kvs[stray].Engine().AppendLoad(nil, key); ok {
		t.Fatalf("non-owner still holds %+v after the rescue", got)
	}
}

// TestAntiEntropyPurgeNeverReachesAnOwner moves the ring under a pass:
// while the non-owner answers its listing, one owner is marked down, so
// the non-owner now owns the bucket. Under the owners table current
// when a purge is sent, no purge may reach a backend that owns its
// key's bucket — the copy it would have taken is a live replica now.
func TestAntiEntropyPurgeNeverReachesAnOwner(t *testing.T) {
	const key = "moving-grade"
	var (
		cp         atomic.Pointer[Cluster]
		mu         sync.Mutex
		strayAt    = -1
		evict      = -1
		violations []string
	)
	kvs, _, c := startWrappedKVCluster(t, 3, ClusterConfig{Replication: 2}, nil,
		func(i int, kv *csnet.KVHandler) csnet.Handler {
			return csnet.HandlerFunc(func(req csnet.Request) csnet.Response {
				c := cp.Load()
				mu.Lock()
				mine, down := i == strayAt, evict
				mu.Unlock()
				switch {
				case req.Op == csnet.OpPurgeV && slices.Contains(c.ReplicaSet(req.Key), i):
					mu.Lock()
					violations = append(violations, fmt.Sprintf("purge of %q reached owner %d", req.Key, i))
					mu.Unlock()
				case req.Op == csnet.OpRangeV && mine && down >= 0:
					c.MarkDown(down)
				}
				return kv.Serve(req)
			})
		})
	cp.Store(c)
	owners, stray, _ := plantLeftover(t, kvs, c, key)
	mu.Lock()
	strayAt, evict = stray, owners[0]
	mu.Unlock()

	if _, err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(c.ReplicaSet(key), stray) {
		t.Fatalf("backend %d does not own %q after the ring change (owners %v)", stray, key, c.ReplicaSet(key))
	}
	if _, _, ok := kvs[stray].Engine().AppendLoad(nil, key); !ok {
		t.Fatal("the new owner's copy was purged")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(violations) > 0 {
		t.Fatal(violations)
	}
}

// TestPurgeDeclinedByOldPeer pins mixed builds: a backend from before
// OpPurgeV answers it "unknown op". It loses nothing — its copy stays —
// and the bucket is diffed and listed again on every pass: safe, at the
// cost of that listing, until the backend is upgraded.
func TestPurgeDeclinedByOldPeer(t *testing.T) {
	const key = "old-build"
	var oldPeer atomic.Int32
	oldPeer.Store(-1)
	kvs, _, c := startWrappedKVCluster(t, 3, ClusterConfig{Replication: 2}, nil,
		func(i int, kv *csnet.KVHandler) csnet.Handler {
			return csnet.HandlerFunc(func(req csnet.Request) csnet.Response {
				if req.Op == csnet.OpPurgeV && int32(i) == oldPeer.Load() {
					return csnet.Response{Status: csnet.StatusError, Value: []byte(fmt.Sprintf("unknown op %d", req.Op))}
				}
				return kv.Serve(req)
			})
		})
	_, stray, _ := plantLeftover(t, kvs, c, key)
	oldPeer.Store(int32(stray))

	for pass := 1; pass <= 2; pass++ {
		st, err := c.Rebalance()
		if err == nil {
			t.Fatalf("pass %d: the declined purge went unreported", pass)
		}
		if st.BucketsDiffed != 1 || st.ListingFrames == 0 || st.Purged != 0 {
			t.Fatalf("pass %d = %+v, want the bucket diffed and listed again, nothing purged", pass, st)
		}
		if _, got, ok := kvs[stray].Engine().AppendLoad(nil, key); !ok || string(got.Value) != "leftover" {
			t.Fatalf("pass %d: old peer's copy = %+v %v, want it kept", pass, got, ok)
		}
	}
}
