package dist

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/obs"
	"pdcedu/internal/store"
)

// startKVCluster boots n KV backends (optionally with custom engines)
// and a cluster over them.
func startKVCluster(t testing.TB, n int, cfg ClusterConfig, mkEngine func(i int) *store.Sharded) ([]*csnet.KVHandler, *Cluster) {
	t.Helper()
	kvs, _, c := startWrappedKVCluster(t, n, cfg, mkEngine, nil)
	return kvs, c
}

// startWrappedKVCluster is startKVCluster with each backend's handler
// passed through wrap (nil: served as is), so a test can watch or
// break what one backend answers; it also returns the servers.
func startWrappedKVCluster(t testing.TB, n int, cfg ClusterConfig, mkEngine func(i int) *store.Sharded,
	wrap func(i int, kv *csnet.KVHandler) csnet.Handler) ([]*csnet.KVHandler, []*csnet.Server, *Cluster) {
	t.Helper()
	kvs := make([]*csnet.KVHandler, n)
	srvs := make([]*csnet.Server, n)
	addrs := make([]string, n)
	for i := range kvs {
		if mkEngine != nil {
			kvs[i] = csnet.NewKVHandlerOn(mkEngine(i))
		} else {
			kvs[i] = csnet.NewKVHandler()
		}
		var h csnet.Handler = kvs[i]
		if wrap != nil {
			h = wrap(i, kvs[i])
		}
		srvs[i] = csnet.NewServer(h, 64)
		addr, err := srvs[i].Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		t.Cleanup(srvs[i].Shutdown)
	}
	cfg.Addrs = addrs
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Second
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return kvs, srvs, c
}

// lose simulates data loss behind the cluster's back: key's entry
// vanishes from eng, tombstone or not, whatever its version.
func lose(eng *store.Sharded, key string) { eng.Purge(key, math.MaxUint64) }

// damageManyBuckets loads keys through c and then purges every fifth
// one from backend 1 behind the cluster's back. It returns the holes
// and the buckets they diverge — several aeGroupBuckets groups' worth.
func damageManyBuckets(t *testing.T, kvs []*csnet.KVHandler, c *Cluster, keys int) (holes int, divergent map[int]bool) {
	t.Helper()
	ks := make([]string, keys)
	vs := make([][]byte, keys)
	for i := range ks {
		ks[i] = fmt.Sprintf("outcome-%d", i)
		vs[i] = []byte(fmt.Sprintf("score-%d", i%100))
	}
	if err := c.MSet(ks, vs); err != nil {
		t.Fatal(err)
	}
	divergent = map[int]bool{}
	for i := 0; i < keys; i += 5 {
		lose(kvs[1].Engine(), ks[i])
		divergent[store.BucketOf(ks[i], c.buckets)] = true
		holes++
	}
	if len(divergent) <= 3*aeGroupBuckets {
		t.Fatalf("damage diverged %d buckets, want more than three groups of %d", len(divergent), aeGroupBuckets)
	}
	return holes, divergent
}

// TestAntiEntropyGroupedPass pins the grouped pass against the
// ungrouped one it replaced: a divergence spread over more than three
// groups of buckets converges in one Rebalance to equal roots, having
// streamed exactly the holes and listed exactly the divergent buckets'
// entries on their owners — the totals of a single listing — in
// ceil(divergent / aeGroupBuckets) listing frames per backend, none of
// which carries more than a group's share of the keyspace.
func TestAntiEntropyGroupedPass(t *testing.T) {
	const n, keys = 3, 5000
	var mu sync.Mutex
	largest := 0 // the largest OpRangeV response body any backend sent
	kvs, _, c := startWrappedKVCluster(t, n, ClusterConfig{Replication: n, WriteQuorum: n}, nil,
		func(_ int, kv *csnet.KVHandler) csnet.Handler {
			return csnet.HandlerFunc(func(req csnet.Request) csnet.Response {
				resp := kv.Serve(req)
				if req.Op == csnet.OpRangeV {
					mu.Lock()
					largest = max(largest, len(resp.Value))
					mu.Unlock()
				}
				return resp
			})
		})
	holes, divergent := damageManyBuckets(t, kvs, c, keys)
	want := make([]bool, c.buckets)
	for b := range divergent {
		want[b] = true
	}
	wantListed := 0
	for _, kv := range kvs {
		kv.Engine().RangeBuckets(want, func(string, store.Entry) bool { wantListed++; return true })
	}

	st, err := c.Rebalance()
	if err != nil || st.Streamed != holes {
		t.Fatalf("grouped pass = %d %v, want %d nil", st.Streamed, err, holes)
	}
	if st.BucketsDiffed != len(divergent) || st.Streamed != holes || st.KeysListed != wantListed {
		t.Errorf("pass diffed %d buckets, streamed %d, listed %d keys; want %d, %d, %d",
			st.BucketsDiffed, st.Streamed, st.KeysListed, len(divergent), holes, wantListed)
	}
	groups := (len(divergent) + aeGroupBuckets - 1) / aeGroupBuckets
	if st.ListingFrames != groups*n {
		t.Errorf("pass used %d listing frames, want %d groups x %d owners", st.ListingFrames, groups, n)
	}
	root := kvs[0].Engine().Digest().Root()
	for b, kv := range kvs {
		if got := kv.Engine().Digest().Root(); got != root {
			t.Errorf("backend %d root %016x after the pass, backend 0 has %016x", b, got, root)
		}
	}
	// The stated size: one response lists aeGroupBuckets of c.buckets
	// buckets, so it may not exceed one and a half times that share of
	// a whole-keyspace listing (buckets are even only on average).
	all := make([]uint32, c.buckets)
	for b := range all {
		all[b] = uint32(b)
	}
	whole := len(kvs[0].Serve(csnet.Request{Op: csnet.OpRangeV, Value: csnet.EncodeBucketList(all)}).Value)
	if limit := whole * aeGroupBuckets / c.buckets * 3 / 2; largest == 0 || largest > limit {
		t.Errorf("largest OpRangeV response was %d bytes, want 1..%d (1.5 x %d/%d of the %d-byte whole listing)",
			largest, limit, aeGroupBuckets, c.buckets, whole)
	}
}

// TestAntiEntropyGroupedPassDropsPoisonedBackend breaks one backend's
// connection while it answers its second group's listing: the pass
// reports the error, leaves that backend out of every later group —
// two listing frames a group instead of three — and still converges
// the other two.
func TestAntiEntropyGroupedPassDropsPoisonedBackend(t *testing.T) {
	const n, keys, victim = 3, 5000, 2
	var listings atomic.Int32
	lose := make(chan *csnet.Server, 1) // the victim's server, once it is up
	release := make(chan struct{})
	kvs, srvs, c := startWrappedKVCluster(t, n, ClusterConfig{Replication: n, WriteQuorum: n}, nil,
		func(i int, kv *csnet.KVHandler) csnet.Handler {
			if i != victim {
				return kv
			}
			return csnet.HandlerFunc(func(req csnet.Request) csnet.Response {
				if req.Op == csnet.OpRangeV && listings.Add(1) == 2 {
					// Shutdown closes the connection under the pending
					// call, then waits for this handler; hold the reply
					// back until the test is over so the close wins.
					go (<-lose).Shutdown()
					<-release
				}
				return kv.Serve(req)
			})
		})
	t.Cleanup(func() { close(release) })
	lose <- srvs[victim]
	_, divergent := damageManyBuckets(t, kvs, c, keys)

	st, err := c.Rebalance()
	if err == nil {
		t.Fatal("pass with a backend lost mid-way reported no error")
	}
	groups := (len(divergent) + aeGroupBuckets - 1) / aeGroupBuckets
	if want := 2*n + (groups-2)*(n-1); st.ListingFrames != want {
		t.Errorf("pass used %d listing frames, want %d (the lost backend asked twice, the others %d times)",
			st.ListingFrames, want, groups)
	}
	if got := listings.Load(); got != 2 {
		t.Errorf("lost backend was asked for %d listings, want 2", got)
	}
	if r0, r1 := kvs[0].Engine().Digest().Root(), kvs[1].Engine().Digest().Root(); r0 != r1 {
		t.Errorf("surviving backends did not converge: roots %016x and %016x", r0, r1)
	}
}

// TestAntiEntropyListingsFitTheirFrames: over a keyspace whose
// 64-bucket listing is more than twice csnet.FrameBudget, a pass asks
// each backend for its first group's share in one frame — nothing yet
// says how wide a bucket is — and from then on splits every share into
// frames whose replies fit csnet.FrameBudget, so the transport recycles
// them on both ends. csnet.server.reply_oversize counts exactly the
// replies that did not fit, and the pass converges as an unsplit one
// would.
func TestAntiEntropyListingsFitTheirFrames(t *testing.T) {
	const n, keys = 3, 20_000
	kvs, c, takeReplies := startWideListingCluster(t, n)
	holes, divergent := damageManyBuckets(t, kvs, c, keys)
	checkWideListings(t, kvs)
	takeReplies()
	oversize := obs.Default().Counter("csnet.server.reply_oversize")
	before := oversize.Value()

	st, err := c.Rebalance()
	if err != nil || st.Streamed != holes || st.BucketsDiffed != len(divergent) {
		t.Fatalf("pass = %+v %v, want %d buckets diffed and %d holes streamed", st, err, len(divergent), holes)
	}
	for b, kv := range kvs {
		if got, want := kv.Engine().Digest().Root(), kvs[0].Engine().Digest().Root(); got != want {
			t.Errorf("backend %d root %016x after the pass, backend 0 has %016x", b, got, want)
		}
	}
	groups := (len(divergent) + aeGroupBuckets - 1) / aeGroupBuckets
	if st.ListingFrames <= groups*n {
		t.Errorf("pass used %d listing frames, want more than %d groups x %d owners", st.ListingFrames, groups, n)
	}
	over := 0
	for b, sizes := range takeReplies() {
		for i, sz := range sizes {
			if sz <= csnet.FrameBudget {
				continue
			}
			over++
			if i > 0 {
				t.Errorf("backend %d's listing reply %d is %d bytes, over the %d-byte frame budget", b, i, sz, csnet.FrameBudget)
			}
		}
	}
	t.Logf("%d listing frames for %d groups x %d owners; %d replies over budget", st.ListingFrames, groups, n, over)
	if d := oversize.Value() - before; d != uint64(over) {
		t.Errorf("csnet.server.reply_oversize grew by %d over the pass, want %d (the replies over budget)", d, over)
	}
}

// startWideListingCluster boots n backends over 256 Merkle buckets —
// few enough that a 20k-key keyspace makes a group's listing wider
// than csnet.FrameBudget — each recording the length of every OpRangeV
// reply frame it sends. takeReplies returns what each backend recorded
// since the last take, in arrival order.
func startWideListingCluster(t *testing.T, n int) (kvs []*csnet.KVHandler, c *Cluster, takeReplies func() [][]int) {
	t.Helper()
	const buckets = 256
	var mu sync.Mutex
	replies := make([][]int, n)
	kvs, _, c = startWrappedKVCluster(t, n, ClusterConfig{Replication: n, WriteQuorum: n, Buckets: buckets},
		func(int) *store.Sharded { return store.NewSharded(store.Options{MerkleBuckets: buckets}) },
		func(i int, kv *csnet.KVHandler) csnet.Handler {
			return csnet.HandlerFunc(func(req csnet.Request) csnet.Response {
				resp := kv.Serve(req)
				if req.Op == csnet.OpRangeV {
					mu.Lock()
					replies[i] = append(replies[i], len(csnet.EncodeResponseV(resp)))
					mu.Unlock()
				}
				return resp
			})
		})
	return kvs, c, func() [][]int {
		mu.Lock()
		defer mu.Unlock()
		taken := replies
		replies = make([][]int, n)
		return taken
	}
}

// checkWideListings fails the test unless one group's listing on
// kvs[0] is more than twice csnet.FrameBudget: wide enough that a pass
// which lists it in one frame is seen to.
func checkWideListings(t *testing.T, kvs []*csnet.KVHandler) {
	t.Helper()
	all := make([]uint32, aeGroupBuckets)
	for b := range all {
		all[b] = uint32(b)
	}
	if share := len(kvs[0].Serve(csnet.Request{Op: csnet.OpRangeV, Value: csnet.EncodeBucketList(all)}).Value); share <= 2*csnet.FrameBudget {
		t.Fatalf("a %d-bucket listing is %d bytes, want over twice the %d-byte frame budget", aeGroupBuckets, share, csnet.FrameBudget)
	}
}

// TestAntiEntropyWidthOutlivesAPass runs two passes on one Cluster over
// a keyspace whose 64-bucket listing is more than twice
// csnet.FrameBudget. The first lists its first group unsized, as
// nothing has shown how wide a bucket is, and some reply comes back
// oversize; the second starts from the width the first saw, so every
// listing reply of it fits FrameBudget and no backend builds one past
// the transport's buffers (csnet.server.reply_oversize, the process's
// count over every backend, does not move).
func TestAntiEntropyWidthOutlivesAPass(t *testing.T) {
	const n, keys = 3, 20_000
	kvs, c, takeReplies := startWideListingCluster(t, n)
	oversize := obs.Default().Counter("csnet.server.reply_oversize")
	for pass := 1; pass <= 2; pass++ {
		holes, _ := damageManyBuckets(t, kvs, c, keys)
		checkWideListings(t, kvs)
		takeReplies()
		before := oversize.Value()
		st, err := c.Rebalance()
		if err != nil || st.Streamed != holes {
			t.Fatalf("pass %d = %+v %v, want %d holes streamed", pass, st, err, holes)
		}
		d := oversize.Value() - before
		if pass == 1 {
			if d == 0 {
				t.Fatal("the first pass built no reply past the transport's buffers: nothing here needs a carried width")
			}
			continue
		}
		if d != 0 {
			t.Errorf("pass 2: csnet.server.reply_oversize grew by %d, want 0: the pass listed unsized again", d)
		}
		for b, sizes := range takeReplies() {
			for i, sz := range sizes {
				if sz > csnet.FrameBudget {
					t.Errorf("pass 2: backend %d's listing reply %d is %d bytes, over the %d-byte frame budget", b, i, sz, csnet.FrameBudget)
				}
			}
		}
	}
}

// TestAntiEntropySteadyStateFrames is the acceptance pin for the
// tentpole: one anti-entropy pass over a converged 10k-key cluster
// exchanges O(backends) digest frames and zero per-key listings, and
// after a small divergence the listing cost tracks the diff, not the
// keyspace.
func TestAntiEntropySteadyStateFrames(t *testing.T) {
	const n, keys = 3, 10_000
	kvs, c := startKVCluster(t, n, ClusterConfig{Replication: n, WriteQuorum: n}, nil)
	ks := make([]string, keys)
	vs := make([][]byte, keys)
	for i := range ks {
		ks[i] = fmt.Sprintf("outcome-%d", i)
		vs[i] = []byte(fmt.Sprintf("score-%d", i%100))
	}
	if err := c.MSet(ks, vs); err != nil {
		t.Fatal(err)
	}

	// First pass settles any noise; the second is the steady state.
	if _, err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Rebalance()
	if err != nil || st.Streamed != 0 {
		t.Fatalf("steady-state pass = %d %v, want 0 nil", st.Streamed, err)
	}
	if st.DigestFrames != n {
		t.Errorf("steady-state digest frames = %d, want %d (one root exchange per backend)", st.DigestFrames, n)
	}
	if st.ListingFrames != 0 || st.KeysListed != 0 || st.ValueFetches != 0 {
		t.Errorf("steady-state pass listed keys: %+v", st)
	}

	// Damage a handful of keys on one backend: the repair pass must
	// list only the divergent buckets — far below the keyspace.
	const holes = 5
	for i := 0; i < holes; i++ {
		lose(kvs[1].Engine(), ks[i*17])
	}
	st, err = c.Rebalance()
	if err != nil || st.Streamed != holes {
		t.Fatalf("repair pass = %d %v, want %d nil", st.Streamed, err, holes)
	}
	if st.BucketsDiffed == 0 || st.BucketsDiffed > holes {
		t.Errorf("repair pass diffed %d buckets, want 1..%d", st.BucketsDiffed, holes)
	}
	if st.KeysListed == 0 || st.KeysListed > keys/10 {
		t.Errorf("repair pass listed %d keys for %d holes over %d keys — cost should track the diff", st.KeysListed, holes, keys)
	}
	for i := 0; i < holes; i++ {
		if _, ok := kvs[1].Engine().Get(ks[i*17]); !ok {
			t.Fatalf("hole %d not repaired", i)
		}
	}
}

// TestAntiEntropySameVersionSplitConverges pins the divergence class
// the digests exist for: two replicas holding the same version with
// different bytes converge to the Entry.Wins (larger) value.
func TestAntiEntropySameVersionSplitConverges(t *testing.T) {
	kvs, _, addrs, c := startVersionedPair(t)
	cl0, err := csnet.Dial(addrs[0], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl0.Close()
	cl1, err := csnet.Dial(addrs[1], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	if _, _, err := cl0.SetV("k", []byte("aaa"), 100); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl1.SetV("k", []byte("zzz"), 100); err != nil {
		t.Fatal(err)
	}
	st, err := c.Rebalance()
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if st.Streamed == 0 {
		t.Fatal("split went unstreamed — the divergence the old listings rebalancer could not see")
	}
	if st.ValueFetches < 2 {
		t.Errorf("stats = %+v, want both split copies fetched", st)
	}
	for b, kv := range kvs {
		e, ok := kv.Engine().Get("k")
		if !ok || string(e.Value) != "zzz" || e.Version != 100 {
			t.Fatalf("backend %d after split repair = %+v %v, want zzz@100", b, e, ok)
		}
	}
	// Converged: the next pass is digest-only.
	if st, err = c.Rebalance(); err != nil || st.Streamed != 0 {
		t.Fatalf("steady-state pass = %d %v, want 0 nil", st.Streamed, err)
	}
	if st.ListingFrames != 0 {
		t.Errorf("steady-state pass still listing: %+v", st)
	}
}

// TestRebalanceGeometryMismatch pins the mismatch path: a backend whose
// engine was built with a different Merkle bucket count cannot be
// tree-diffed, so the pass leaves it out with an error naming both
// geometries, and the backends that match still converge among
// themselves — with nothing merged onto the odd one.
func TestRebalanceGeometryMismatch(t *testing.T) {
	const odd = 2
	var merges atomic.Int32
	kvs, _, c := startWrappedKVCluster(t, 3, ClusterConfig{Replication: 3, WriteQuorum: 1},
		func(i int) *store.Sharded {
			if i == odd {
				return store.NewSharded(store.Options{Shards: 8, MerkleBuckets: 64})
			}
			return store.NewSharded(store.Options{})
		},
		func(i int, kv *csnet.KVHandler) csnet.Handler {
			return csnet.HandlerFunc(func(req csnet.Request) csnet.Response {
				if i == odd && req.Op == csnet.OpMerge {
					merges.Add(1)
				}
				return kv.Serve(req)
			})
		})
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	lose(kvs[1].Engine(), "k")
	lose(kvs[odd].Engine(), "k")
	st, err := c.Rebalance()
	if err == nil || !strings.Contains(err.Error(), "64 buckets") || !strings.Contains(err.Error(), fmt.Sprint(store.DefaultMerkleBuckets)) {
		t.Fatalf("pass error = %v, want the mismatch naming 64 and %d buckets", err, store.DefaultMerkleBuckets)
	}
	if st.Streamed != 1 {
		t.Fatalf("pass streamed %d, want 1 (the hole on the matching backend)", st.Streamed)
	}
	if _, ok := kvs[1].Engine().Get("k"); !ok {
		t.Fatal("the matching backends did not converge")
	}
	if got := merges.Load(); got != 0 {
		t.Errorf("%d merges reached the mismatched backend, want 0", got)
	}
}
