package csnet

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pdcedu/internal/store"
)

func TestBucketListRoundTrip(t *testing.T) {
	for _, ids := range [][]uint32{nil, {1}, {1, 2, 3, 1024, 0xFFFFFFFF}} {
		got, err := DecodeBucketList(EncodeBucketList(ids))
		if err != nil {
			t.Fatalf("roundtrip %v: %v", ids, err)
		}
		if len(got) != len(ids) {
			t.Fatalf("roundtrip %v = %v", ids, got)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("roundtrip %v = %v", ids, got)
			}
		}
	}
	for _, bad := range [][]byte{{}, {0, 0}, {0, 0, 0, 2, 0, 0, 0, 1}, append(EncodeBucketList([]uint32{1}), 9)} {
		if _, err := DecodeBucketList(bad); err == nil {
			t.Fatalf("malformed bucket list %v decoded", bad)
		}
	}
}

func TestTreeRoundTrip(t *testing.T) {
	nodes := []TreeNode{{Node: 1, Hash: 0xDEADBEEF}, {Node: 1024, Hash: 0}, {Node: 2047, Hash: ^uint64(0)}}
	buckets, got, err := DecodeTree(EncodeTree(1024, nodes))
	if err != nil || buckets != 1024 || !reflect.DeepEqual(got, nodes) {
		t.Fatalf("roundtrip = %d %v %v", buckets, got, err)
	}
	for _, bad := range [][]byte{{}, {0, 0, 0, 1}, {0, 0, 4, 0, 0, 0, 0, 2, 0, 0, 0, 1}} {
		if _, _, err := DecodeTree(bad); err == nil {
			t.Fatalf("malformed tree %v decoded", bad)
		}
	}
}

func TestRangeVRoundTrip(t *testing.T) {
	entries := []KeyDigest{
		{Key: "plain", Version: 100, Digest: 42},
		{Key: "dead", Version: 200, Tombstone: true},
		{Key: "", Version: 500, Digest: 1},
	}
	body, err := EncodeRangeV(entries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRangeV(body)
	if err != nil || !reflect.DeepEqual(got, entries) {
		t.Fatalf("roundtrip = %+v %v", got, err)
	}
	// A count claiming more entries than the body holds is rejected
	// before allocation.
	if _, err := DecodeRangeV([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("absurd count decoded")
	}
	if _, err := DecodeRangeV(append(body, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestTreeAndRangeOps drives the digest exchange end to end against a
// live server: descend from the root to the divergent bucket, list it,
// and find exactly the differing key.
func TestTreeAndRangeOps(t *testing.T) {
	kv := NewKVHandlerOn(store.NewSharded(store.Options{Shards: 8, MerkleBuckets: 64}))
	srv := NewServer(kv, 4)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	cl, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	local := store.NewSharded(store.Options{Shards: 8, MerkleBuckets: 64})
	for i := 0; i < 50; i++ {
		e := store.Entry{Value: []byte{byte(i)}, Version: uint64(1000 + i)}
		kv.Engine().Merge(keyN(i), e)
		local.Merge(keyN(i), e)
	}

	// Converged: the roots match in one frame.
	buckets, nodes, err := cl.TreeV(nil)
	if err != nil || buckets != 64 || len(nodes) != 1 || nodes[0].Node != 1 {
		t.Fatalf("TreeV(root) = %d %v %v", buckets, nodes, err)
	}
	if nodes[0].Hash != local.Digest().Root() {
		t.Fatal("converged roots differ")
	}

	// Diverge one key and descend to its bucket.
	kv.Engine().Merge(keyN(7), store.Entry{Value: []byte("split"), Version: 1007})
	want := store.BucketOf(keyN(7), 64)
	frontier := []uint32{1}
	var divergent []int
	rounds := 0
	for len(frontier) > 0 {
		rounds++
		_, remote, err := cl.TreeV(frontier)
		if err != nil {
			t.Fatal(err)
		}
		d := local.Digest()
		var next []uint32
		for _, n := range remote {
			h, _ := d.Node(int(n.Node))
			if h == n.Hash {
				continue
			}
			if int(n.Node) >= 64 {
				divergent = append(divergent, int(n.Node)-64)
			} else {
				next = append(next, 2*n.Node, 2*n.Node+1)
			}
		}
		frontier = next
	}
	if len(divergent) != 1 || divergent[0] != want {
		t.Fatalf("descent found buckets %v, want [%d]", divergent, want)
	}
	if rounds != 7 { // log2(64) levels + the root round
		t.Fatalf("descent took %d rounds, want 7", rounds)
	}

	// The bucket listing pins the divergent key by digest.
	listing, err := rangeV(cl, []uint32{uint32(want)})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range listing {
		if e.Key != keyN(7) {
			continue
		}
		found = true
		if e.Version != 1007 || e.Digest != store.ValueDigest([]byte("split")) {
			t.Fatalf("listing entry = %+v", e)
		}
	}
	if !found {
		t.Fatalf("bucket %d listing missed the divergent key: %+v", want, listing)
	}

	// Out-of-range queries error instead of panicking.
	if _, _, err := cl.TreeV([]uint32{9999}); err == nil {
		t.Fatal("out-of-range tree node accepted")
	}
	if _, err := rangeV(cl, []uint32{9999}); err == nil {
		t.Fatal("out-of-range bucket accepted")
	}
}

// TestRangeVHandlerMatchesEncoder pins the handler's in-place encoding
// to EncodeRangeV byte for byte, one entry of each flag combination at
// a time (a listing's order is the engine's scan order, so only a
// one-entry body has a single encoding), and the empty listing.
func TestRangeVHandlerMatchesEncoder(t *testing.T) {
	for _, e := range []store.Entry{
		{Value: []byte("plain"), Version: 100},
		{Version: 200, Tombstone: true},
	} {
		kv := NewKVHandler()
		kv.Engine().Merge("k", e)
		b := uint32(store.BucketOf("k", kv.Engine().Buckets()))
		want, err := EncodeRangeV([]KeyDigest{{Key: "k", Version: e.Version, Digest: store.ValueDigest(e.Value), Tombstone: e.Tombstone}})
		if err != nil {
			t.Fatal(err)
		}
		// The key's bucket twice and its neighbour: still one entry.
		resp := kv.Serve(Request{Op: OpRangeV, Value: EncodeBucketList([]uint32{b, b ^ 1, b})})
		if resp.Status != StatusOK || !reflect.DeepEqual(resp.Value, want) {
			t.Errorf("entry %+v: handler body %x (%s), EncodeRangeV %x", e, resp.Value, resp.Status, want)
		}
		empty, _ := EncodeRangeV(nil)
		resp = kv.Serve(Request{Op: OpRangeV, Value: EncodeBucketList([]uint32{b ^ 1})})
		if resp.Status != StatusOK || !reflect.DeepEqual(resp.Value, empty) {
			t.Errorf("empty bucket: handler body %x (%s), EncodeRangeV %x", resp.Value, resp.Status, empty)
		}
	}
}

// rangeVAllBuckets loads a handler with n keys of 128-byte values and
// returns it with the OpRangeV request that lists every bucket.
func rangeVAllBuckets(n int) (*KVHandler, Request) {
	kv := NewKVHandler()
	for i := 0; i < n; i++ {
		kv.Engine().Merge(fmt.Sprintf("key-%07d", i), store.Entry{Value: make([]byte, 128), Version: uint64(1000 + i)})
	}
	ids := make([]uint32, kv.Engine().Buckets())
	for b := range ids {
		ids[b] = uint32(b)
	}
	return kv, Request{Op: OpRangeV, Value: EncodeBucketList(ids)}
}

// TestRangeVAllocatesItsBody is the bound the listing owes
// anti-entropy: the handler encodes entries into the response body as
// the engine's scan meets them, so one OpRangeV over every bucket of a
// 100k-key engine allocates its response (plus the sizing slack and
// the id list) — at most 1.25 x the body — where the KeyDigest slice
// and the second encode pass cost several times that. The body must
// still be what the coordinator's decoder reads: every resident entry
// once, with its version and value digest.
func TestRangeVAllocatesItsBody(t *testing.T) {
	const keys = 100_000
	kv, req := rangeVAllBuckets(keys)
	var resp Response
	var worst uint64
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp = kv.Serve(req)
		runtime.ReadMemStats(&after)
		worst = max(worst, after.TotalAlloc-before.TotalAlloc)
	}
	if resp.Status != StatusOK {
		t.Fatalf("RangeV status %s: %s", resp.Status, resp.Value)
	}
	if limit := uint64(len(resp.Value)) * 5 / 4; worst > limit {
		t.Errorf("OpRangeV over all buckets allocated %d bytes for a %d-byte body, want <= %d", worst, len(resp.Value), limit)
	}
	listing, err := DecodeRangeV(resp.Value)
	if err != nil || len(listing) != keys {
		t.Fatalf("listing decoded to %d entries (%v), want %d", len(listing), err, keys)
	}
	seen := make(map[string]bool, keys)
	digest := store.ValueDigest(make([]byte, 128))
	for _, e := range listing {
		_, raw, ok := kv.Engine().AppendLoad(nil, e.Key)
		if !ok || seen[e.Key] || e.Version != raw.Version || e.Digest != digest || e.Tombstone {
			t.Fatalf("listed %+v (seen before: %v), resident %+v %v", e, seen[e.Key], raw, ok)
		}
		seen[e.Key] = true
	}
}

// TestDecodeRangeVAllocatesTheSlice is the coordinator's half of the
// same bound: decoding an N-entry listing allocates the []KeyDigest and
// nothing per entry, because every key aliases the reply body.
func TestDecodeRangeVAllocatesTheSlice(t *testing.T) {
	entries := make([]KeyDigest, 1000)
	for i := range entries {
		entries[i] = KeyDigest{Key: fmt.Sprintf("listed-%d", i), Version: uint64(i + 1), Digest: uint64(i)}
	}
	entries[7].Tombstone = true
	body, err := EncodeRangeV(entries)
	if err != nil {
		t.Fatal(err)
	}
	var got []KeyDigest
	if allocs := testing.AllocsPerRun(20, func() { got, err = DecodeRangeV(body) }); allocs != 1 {
		t.Errorf("decoding a %d-entry listing made %.0f allocations, want 1 (the slice)", len(entries), allocs)
	}
	if err != nil || !reflect.DeepEqual(got, entries) {
		t.Fatalf("listing decoded to %d entries (%v), want the %d encoded", len(got), err, len(entries))
	}
}

// BenchmarkRangeVAllBuckets is TestRangeVAllocatesItsBody's CI twin:
// scripts/allocgate.sh holds its B/op to a ceiling.
func BenchmarkRangeVAllBuckets(b *testing.B) {
	kv, req := rangeVAllBuckets(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := kv.Serve(req); resp.Status != StatusOK {
			b.Fatalf("RangeV status %s", resp.Status)
		}
	}
}

func keyN(i int) string {
	return "key-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i/26))
}
