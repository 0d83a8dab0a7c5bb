package store

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// digestOf builds a reference Digest straight from a raw entry map,
// bypassing all the incremental dirty-tracking machinery — what the
// property test and the determinism tests compare engines against. It
// spells the leaf definition out rather than calling leafTerm: a leaf
// is the wrapping sum, over the bucket's entries in any order, of each
// tuple's FNV hash put through the 64-bit avalanche; 0 is the empty
// bucket's alone.
func digestOf(data map[string]Entry, buckets int) *Digest {
	leaves := make([]uint64, buckets)
	filled := make([]bool, buckets)
	for k, e := range data {
		h := hashEntry(fnvOffset64, k, e)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		b := BucketOf(k, buckets)
		leaves[b] += h
		filled[b] = true
	}
	for b := range leaves {
		if filled[b] && leaves[b] == 0 {
			leaves[b] = 1
		}
	}
	return newDigest(leaves)
}

// TestMerkleDigestDeterministic pins the replication contract: two
// engines with identical raw content — different shard counts, writes
// in different orders — produce identical trees.
func TestMerkleDigestDeterministic(t *testing.T) {
	ft := newFakeTime()
	a := NewSharded(Options{Shards: 4, MerkleBuckets: 64, Now: ft.now})
	b := NewSharded(Options{Shards: 1, MerkleBuckets: 64, Now: ft.now})
	entries := map[string]Entry{}
	for i := 0; i < 200; i++ {
		entries[fmt.Sprintf("k-%d", i)] = Entry{Value: []byte(fmt.Sprintf("v-%d", i)), Version: uint64(1000 + i)}
	}
	entries["dead"] = Entry{Version: 5000, Tombstone: true}
	for k, e := range entries {
		a.Merge(k, e)
	}
	// Reverse-ish order into b: map iteration already scrambles, but be
	// explicit that order cannot matter.
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(keys)))
	for _, k := range keys {
		b.Merge(k, entries[k])
	}
	da, db := a.Digest(), b.Digest()
	if da.Buckets() != 64 || db.Buckets() != 64 {
		t.Fatalf("buckets = %d/%d, want 64", da.Buckets(), db.Buckets())
	}
	if da.Root() == 0 || da.Root() != db.Root() {
		t.Fatalf("roots differ: 4 shards %016x, 1 shard %016x", da.Root(), db.Root())
	}
	if want := digestOf(entries, 64); da.Root() != want.Root() {
		t.Fatalf("engine root %016x, reference %016x", da.Root(), want.Root())
	}
	// Every node agrees, not just the root.
	for i := 1; i < 128; i++ {
		ha, _ := da.Node(i)
		hb, _ := db.Node(i)
		if ha != hb {
			t.Fatalf("node %d differs: %016x vs %016x", i, ha, hb)
		}
	}
	if _, ok := da.Node(0); ok {
		t.Fatal("node 0 reported valid")
	}
	if _, ok := da.Node(128); ok {
		t.Fatal("node 2*buckets reported valid")
	}
}

// TestMerkleDigestTracksWrites pins the incremental maintenance: every
// kind of mutation changes the root, idle engines reuse the cached
// snapshot, and a divergent value at the same version is visible.
func TestMerkleDigestTracksWrites(t *testing.T) {
	ft := newFakeTime()
	for name, eng := range engines(ft) {
		t.Run(name, func(t *testing.T) {
			d0 := eng.Digest()
			if d0.Root() != 0 {
				t.Fatalf("empty root = %016x, want 0", d0.Root())
			}
			eng.Set("k", []byte("a"))
			d1 := eng.Digest()
			if d1.Root() == 0 || d1.Root() == d0.Root() {
				t.Fatal("Set did not change the root")
			}
			if eng.Digest() != d1 {
				t.Fatal("idle engine rebuilt instead of reusing the snapshot")
			}
			eng.Delete("k")
			d2 := eng.Digest()
			if d2.Root() == d1.Root() {
				t.Fatal("Delete did not change the root")
			}
			eng.Purge("k", math.MaxUint64)
			d3 := eng.Digest()
			if d3.Root() != 0 {
				t.Fatalf("root after purge-to-empty = %016x, want 0", d3.Root())
			}
		})
	}
}

// TestMerkleSameVersionDivergenceVisible is the digest's reason to
// exist: two copies at the same version with different values — the
// divergence OpKeysV listings cannot see — hash differently.
func TestMerkleSameVersionDivergenceVisible(t *testing.T) {
	a := NewSharded(Options{MerkleBuckets: 64})
	b := NewSharded(Options{MerkleBuckets: 64})
	a.Merge("k", Entry{Value: []byte("aaa"), Version: 100})
	b.Merge("k", Entry{Value: []byte("zzz"), Version: 100})
	if a.Digest().Root() == b.Digest().Root() {
		t.Fatal("same-version different-value copies hashed equal")
	}
	// The Wins tie-break converges them, and the digests agree again.
	a.Merge("k", Entry{Value: []byte("zzz"), Version: 100})
	if a.Digest().Root() != b.Digest().Root() {
		t.Fatal("converged copies hash differently")
	}
}

// TestRangeBucketsVisitsListedBuckets pins RangeBuckets against its
// definition — AppendLoad of every key the test wrote, filtered by
// BucketOf: the marked buckets' entries, each exactly once, however
// many marked buckets share a shard; every bucket marked is the whole
// raw entry space.
func TestRangeBucketsVisitsListedBuckets(t *testing.T) {
	ft := newFakeTime()
	for name, eng := range engines(ft) {
		t.Run(name, func(t *testing.T) {
			const written = 3000
			for i := 0; i < written; i++ {
				eng.Set(fmt.Sprintf("k-%d", i), []byte{byte(i)})
			}
			eng.Delete("k-7")
			buckets := eng.Buckets()
			all := make([]int, buckets)
			for b := range all {
				all[b] = b
			}
			for _, ids := range [][]int{
				nil,
				{5},
				{1023, 0, 512, 7, 135, 263}, // unsorted; 7, 135 and 263 share a shard
				{9, 9, 300, 9, 300},         // repeated
				all,
			} {
				listed := make([]bool, buckets)
				for _, b := range ids {
					listed[b] = true
				}
				want := map[string]Entry{}
				for i := 0; i < written; i++ {
					k := fmt.Sprintf("k-%d", i)
					if !listed[BucketOf(k, buckets)] {
						continue
					}
					_, e, ok := eng.AppendLoad(nil, k)
					if !ok {
						t.Fatalf("AppendLoad(%q) missed a key the test wrote", k)
					}
					want[k] = e
				}
				got := map[string]Entry{}
				eng.RangeBuckets(listed, func(k string, e Entry) bool {
					if _, dup := got[k]; dup {
						t.Fatalf("ids %v: key %q visited twice", ids, k)
					}
					got[k] = e
					return true
				})
				if len(got) != len(want) {
					t.Fatalf("ids %v: visited %d entries, AppendLoad+BucketOf gives %d", ids, len(got), len(want))
				}
				for k, e := range want {
					if g, ok := got[k]; !ok || g.Version != e.Version || g.Tombstone != e.Tombstone || string(g.Value) != string(e.Value) {
						t.Fatalf("ids %v: key %q visited as %+v (%v), want %+v", ids, k, g, ok, e)
					}
				}
			}
			// The partition: every bucket listed is the whole raw space,
			// tombstone included.
			n, sawTomb := 0, false
			eng.RangeBuckets(everyBucket(eng), func(k string, e Entry) bool {
				n++
				sawTomb = sawTomb || (k == "k-7" && e.Tombstone)
				return true
			})
			if n != written || !sawTomb {
				t.Fatalf("all buckets visited %d entries (tombstone seen: %v), want 3000 with it", n, sawTomb)
			}
			// fn returning false stops the iteration.
			n = 0
			eng.RangeBuckets(everyBucket(eng), func(string, Entry) bool { n++; return n < 10 })
			if n != 10 {
				t.Fatalf("iteration went on for %d entries after fn returned false at 10", n)
			}
		})
	}
}

// TestMerkleOrderIndependent pins what makes the leaf a reduction and
// not a fold: the same entries arriving in 20 shuffled orders — so in
// 20 map layouts, met by the scan in 20 orders — give one root, the
// reference's, at four shards and at one.
func TestMerkleOrderIndependent(t *testing.T) {
	type kv struct {
		k string
		e Entry
	}
	var entries []kv
	ref := map[string]Entry{}
	for i := 0; i < 500; i++ {
		e := Entry{Value: []byte(fmt.Sprintf("v-%d", i)), Version: uint64(1000 + i)}
		if i%50 == 0 {
			e = Entry{Version: uint64(1000 + i), Tombstone: true}
		}
		entries = append(entries, kv{fmt.Sprintf("k-%d", i), e})
		ref[entries[i].k] = e
	}
	want := digestOf(ref, 64).Root()
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 20; round++ {
		rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		for name, eng := range map[string]*Sharded{
			"4 shards": NewSharded(Options{Shards: 4, MerkleBuckets: 64}),
			"1 shard":  NewSharded(Options{Shards: 1, MerkleBuckets: 64}),
		} {
			for _, x := range entries {
				eng.Merge(x.k, x.e)
			}
			if got := eng.Digest().Root(); got != want {
				t.Fatalf("round %d %s: root %016x, want %016x", round, name, got, want)
			}
		}
	}
}

// TestMerkleSingleFieldDivergence pins the leaf's resolution: two
// engines that differ in one key, one version, one value byte, one
// tombstone bit or one ExpireAt differ in exactly that key's leaf (and
// so in the root), and in no other.
func TestMerkleSingleFieldDivergence(t *testing.T) {
	base := map[string]Entry{}
	for i := 0; i < 400; i++ {
		base[fmt.Sprintf("k-%d", i)] = Entry{Value: []byte(fmt.Sprintf("value-%d", i)), Version: uint64(1000 + i)}
	}
	base["tomb"] = Entry{Version: 7000, Tombstone: true}
	build := func(mutate func(m map[string]Entry)) *Digest {
		m := make(map[string]Entry, len(base)+1)
		for k, e := range base {
			m[k] = e
		}
		mutate(m)
		eng := NewSharded(Options{Shards: 8, MerkleBuckets: 64})
		for k, e := range m {
			eng.Merge(k, e)
		}
		return eng.Digest()
	}
	ref := build(func(map[string]Entry) {})
	for name, c := range map[string]struct {
		key    string
		mutate func(m map[string]Entry)
	}{
		"extra key":     {"k-new", func(m map[string]Entry) { m["k-new"] = Entry{Value: []byte("x"), Version: 9000} }},
		"missing key":   {"k-17", func(m map[string]Entry) { delete(m, "k-17") }},
		"version":       {"k-42", func(m map[string]Entry) { e := m["k-42"]; e.Version++; m["k-42"] = e }},
		"value byte":    {"k-99", func(m map[string]Entry) { e := m["k-99"]; e.Value = []byte("value-9A"); m["k-99"] = e }},
		"tombstone bit": {"k-3", func(m map[string]Entry) { m["k-3"] = Entry{Version: m["k-3"].Version, Tombstone: true} }},
	} {
		got := build(c.mutate)
		if got.Root() == ref.Root() {
			t.Errorf("%s: roots equal", name)
		}
		for b := 0; b < 64; b++ {
			if differs, want := got.Leaf(b) != ref.Leaf(b), b == BucketOf(c.key, 64); differs != want {
				t.Errorf("%s: leaf %d differs = %v, want %v (the key's bucket is %d)", name, b, differs, want, BucketOf(c.key, 64))
			}
		}
	}
}

// TestMerkleEmptyBucketIsZero pins the reserved value both ways: a
// bucket holding anything has a nonzero leaf, and one emptied again —
// set then purged — goes back to 0, so two replicas missing the same
// range compare equal.
func TestMerkleEmptyBucketIsZero(t *testing.T) {
	for name, eng := range engines(newFakeTime()) {
		t.Run(name, func(t *testing.T) {
			buckets := eng.Buckets()
			held := map[int]int{}
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("k-%d", i)
				eng.Set(k, []byte("x"))
				held[BucketOf(k, buckets)]++
			}
			check := func(when string) {
				d := eng.Digest()
				for b := 0; b < buckets; b++ {
					if (d.Leaf(b) == 0) != (held[b] == 0) {
						t.Fatalf("%s: bucket %d holds %d entries, leaf %016x", when, b, held[b], d.Leaf(b))
					}
				}
			}
			check("after sets")
			for i := 0; i < 300; i += 2 {
				k := fmt.Sprintf("k-%d", i)
				eng.Purge(k, math.MaxUint64)
				held[BucketOf(k, buckets)]--
			}
			check("after purging half")
			for i := 1; i < 300; i += 2 {
				eng.Purge(fmt.Sprintf("k-%d", i), math.MaxUint64)
			}
			if root := eng.Digest().Root(); root != 0 {
				t.Fatalf("root after purging everything = %016x, want 0", root)
			}
		})
	}
}

// fillAllBuckets loads n keys — enough that every bucket holds some —
// and returns a function that dirties every bucket again.
func fillAllBuckets(tb testing.TB, eng *Sharded, n int) (touchAll func()) {
	tb.Helper()
	first := make([]string, eng.Buckets()) // one resident key per bucket
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%07d", i)
		eng.Merge(k, Entry{Value: make([]byte, 128), Version: uint64(1000 + i)})
		if b := BucketOf(k, len(first)); first[b] == "" {
			first[b] = k
		}
	}
	ver := uint64(1 << 40)
	return func() {
		for _, k := range first {
			if k == "" {
				tb.Fatalf("%d keys left a bucket empty", n)
			}
			ver++
			eng.Merge(k, Entry{Value: make([]byte, 128), Version: ver})
		}
	}
}

// TestDigestAllocatesPerBucketNotPerKey is the bound this package owes
// anti-entropy: a Digest() that rebuilds every leaf of a 100k-key
// engine allocates the tree it returns (2 x 1024 x 8 bytes) and a
// closure — under 64 KiB and a handful of objects — where gathering
// and sorting the entries took a copy of the keyspace.
func TestDigestAllocatesPerBucketNotPerKey(t *testing.T) {
	eng := NewSharded(Options{})
	touchAll := fillAllBuckets(t, eng, 100_000)
	eng.Digest()
	// Allocation count: a round of writes and its digest, less the
	// writes alone.
	writes := testing.AllocsPerRun(5, touchAll)
	eng.Digest()
	both := testing.AllocsPerRun(5, func() {
		touchAll()
		eng.Digest()
	})
	if both-writes > 8 {
		t.Errorf("Digest() with every bucket dirty made %.0f allocations, want <= 8", both-writes)
	}
	// Bytes, around the call itself.
	for i := 0; i < 5; i++ {
		touchAll()
		rebuilt := merkleRebuilt.Value()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng.Digest()
		runtime.ReadMemStats(&after)
		if got := merkleRebuilt.Value() - rebuilt; got != uint64(eng.Buckets()) {
			t.Fatalf("Digest rebuilt %d leaves, want all %d", got, eng.Buckets())
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("Digest() with every bucket dirty allocated %d bytes, want < 64 KiB", got)
		}
	}
}

// BenchmarkDigestAllDirty is that test's CI twin: scripts/allocgate.sh
// holds its B/op to a ceiling. The writes that dirty every bucket run
// with the timer — and so the allocation count — stopped.
func BenchmarkDigestAllDirty(b *testing.B) {
	eng := NewSharded(Options{})
	touchAll := fillAllBuckets(b, eng, 100_000)
	eng.Digest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		touchAll()
		b.StartTimer()
		eng.Digest()
	}
}
