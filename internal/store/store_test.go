package store

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeTime is a manually advanced wall clock shared by an engine and
// its version clock, so TTL and GC tests are deterministic.
type fakeTime struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeTime() *fakeTime {
	return &fakeTime{t: time.Date(2026, 7, 29, 12, 0, 0, 0, time.UTC)}
}

func (f *fakeTime) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeTime) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// engines returns the engine in two geometries on the same fake time,
// so every semantic test runs against each: "sharded" spreads the keys
// over eight shards, and "flat" keeps them all behind one lock, where
// every Merkle bucket lives in the one shard and the shard-skipping
// paths (scanBuckets, Sweep's cursor) have a single shard to visit.
func engines(ft *fakeTime) map[string]*Sharded {
	return map[string]*Sharded{
		"sharded": NewSharded(Options{Shards: 8, Now: ft.now}),
		"flat":    NewSharded(Options{Shards: 1, Now: ft.now}),
	}
}

func TestEngineBasicOps(t *testing.T) {
	for name, eng := range engines(newFakeTime()) {
		t.Run(name, func(t *testing.T) {
			if _, ok := eng.Get("missing"); ok {
				t.Fatal("Get on empty engine hit")
			}
			v1 := eng.Set("k", []byte("a"))
			if v1 == 0 {
				t.Fatal("Set stamped version 0")
			}
			e, ok := eng.Get("k")
			if !ok || string(e.Value) != "a" || e.Version != v1 {
				t.Fatalf("Get = %+v %v, want a@%d", e, ok, v1)
			}
			v2 := eng.Set("k", []byte("b"))
			if v2 <= v1 {
				t.Fatalf("versions not monotonic: %d then %d", v1, v2)
			}
			if eng.Len() != 1 {
				t.Fatalf("Len = %d, want 1", eng.Len())
			}
			eng.Set("k2", []byte("c"))
			dv, existed := eng.Delete("k")
			if !existed || dv <= v2 {
				t.Fatalf("Delete = %d %v, want newer version and existed", dv, existed)
			}
			if _, ok := eng.Get("k"); ok {
				t.Fatal("Get after Delete hit")
			}
			// The tombstone is still loadable for replication.
			_, raw, ok := eng.AppendLoad(nil, "k")
			if !ok || !raw.Tombstone || raw.Version != dv {
				t.Fatalf("AppendLoad after Delete = %+v %v, want tombstone@%d", raw, ok, dv)
			}
			if eng.Len() != 1 {
				t.Fatalf("Len after delete = %d, want 1 (k2)", eng.Len())
			}
			// Deleting an absent key still records a tombstone.
			if _, existed := eng.Delete("never"); existed {
				t.Fatal("Delete of absent key reported a live value")
			}
			if _, raw, ok := eng.AppendLoad(nil, "never"); !ok || !raw.Tombstone {
				t.Fatal("Delete of absent key left no tombstone")
			}
		})
	}
}

func TestEngineMergeLWW(t *testing.T) {
	for name, eng := range engines(newFakeTime()) {
		t.Run(name, func(t *testing.T) {
			if winner, applied := eng.Merge("k", Entry{Value: []byte("v100"), Version: 100}); !applied || winner != 100 {
				t.Fatalf("merge into empty = %d %v", winner, applied)
			}
			// A stale merge must lose, whatever order it arrives in.
			if winner, applied := eng.Merge("k", Entry{Value: []byte("v50"), Version: 50}); applied || winner != 100 {
				t.Fatalf("stale merge = %d %v, want kept 100", winner, applied)
			}
			if e, _ := eng.Get("k"); string(e.Value) != "v100" {
				t.Fatalf("stale merge overwrote: %q", e.Value)
			}
			// A newer merge wins.
			if _, applied := eng.Merge("k", Entry{Value: []byte("v200"), Version: 200}); !applied {
				t.Fatal("newer merge lost")
			}
			// A stale tombstone loses; a newer one deletes.
			if _, applied := eng.Merge("k", Entry{Version: 150, Tombstone: true}); applied {
				t.Fatal("stale tombstone applied")
			}
			if _, applied := eng.Merge("k", Entry{Version: 300, Tombstone: true}); !applied {
				t.Fatal("newer tombstone lost")
			}
			if _, ok := eng.Get("k"); ok {
				t.Fatal("key readable after tombstone merge")
			}
			// Version tie: tombstone beats value, larger value beats smaller —
			// so replicas converge regardless of arrival order.
			eng.Merge("tie", Entry{Value: []byte("aaa"), Version: 400})
			if _, applied := eng.Merge("tie", Entry{Value: []byte("zzz"), Version: 400}); !applied {
				t.Fatal("larger value lost the tie")
			}
			if _, applied := eng.Merge("tie", Entry{Value: []byte("mmm"), Version: 400}); applied {
				t.Fatal("smaller value won the tie")
			}
			if _, applied := eng.Merge("tie", Entry{Version: 400, Tombstone: true}); !applied {
				t.Fatal("tombstone lost the tie")
			}
			// Merging keeps the local clock ahead of what it has seen.
			if next := eng.Clock().Next(); next <= 400 {
				t.Fatalf("clock did not observe merged version: next = %d", next)
			}
		})
	}
}

func TestEngineSweep(t *testing.T) {
	ft := newFakeTime()
	for name, eng := range engines(ft) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 30; i++ {
				eng.Set(fmt.Sprintf("del-%d", i), []byte("x"))
				eng.Delete(fmt.Sprintf("del-%d", i))
			}
			eng.Set("keep", []byte("x"))
			// Nothing is old enough yet: a sweep removes nothing.
			if pur := eng.Sweep(0); pur != 0 {
				t.Fatalf("premature sweep removed %d", pur)
			}
			// Inside the tombstone GC age, each tombstone is retained.
			ft.advance(2 * time.Minute)
			if pur := eng.Sweep(0); pur != 0 {
				t.Fatalf("sweep inside the GC age purged %d, want 0", pur)
			}
			if _, raw, ok := eng.AppendLoad(nil, "del-0"); !ok || !raw.Tombstone {
				t.Fatalf("swept delete = %+v %v, want its tombstone", raw, ok)
			}
			// Past the GC age: the tombstones go.
			ft.advance(2 * time.Hour)
			if pur := eng.Sweep(0); pur != 30 {
				t.Fatalf("post-GC sweep purged %d, want 30", pur)
			}
			if eng.Len() != 1 {
				t.Fatalf("Len after sweeps = %d, want 1", eng.Len())
			}
			if _, ok := eng.Get("keep"); !ok {
				t.Fatal("sweep removed a live entry")
			}
		})
	}
}

// TestShardedBoundedSweep pins the rotation: limited sweeps cover the
// whole store across successive calls instead of rescanning one shard.
func TestShardedBoundedSweep(t *testing.T) {
	ft := newFakeTime()
	eng := NewSharded(Options{Shards: 8, Now: ft.now})
	for i := 0; i < 400; i++ {
		eng.Delete(fmt.Sprintf("k-%d", i))
	}
	ft.advance(2 * time.Hour)
	total := 0
	for i := 0; i < eng.Shards(); i++ {
		total += eng.Sweep(1) // scan at least one shard per call
	}
	if total != 400 {
		t.Fatalf("bounded sweeps purged %d tombstones, want all 400", total)
	}
}

func TestEngineKeysAndRange(t *testing.T) {
	ft := newFakeTime()
	for name, eng := range engines(ft) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 20; i++ {
				eng.Set(fmt.Sprintf("k-%d", i), []byte("x"))
			}
			eng.Delete("k-0")
			eng.Delete("gone") // a tombstone for a key never written
			// The listing sees the raw state, tombstones included; only
			// 19 of its entries are live.
			raw := rawState(eng)
			if len(raw) != 21 {
				t.Fatalf("listing visited %d entries, want 21 raw", len(raw))
			}
			if !raw["k-0"].Tombstone {
				t.Fatal("listing lost the tombstone")
			}
			live := 0
			for k, e := range raw {
				if !e.Tombstone {
					live++
				} else if k != "k-0" && k != "gone" {
					t.Fatalf("live key %q listed as dead: %+v", k, e)
				}
			}
			if live != 19 {
				t.Fatalf("listing holds %d live entries, want 19", live)
			}
			// Early stop works.
			n := 0
			eng.RangeBuckets(everyBucket(eng), func(string, Entry) bool { n++; return n < 5 })
			if n != 5 {
				t.Fatalf("listing continued after fn returned false: %d visits", n)
			}
			// Purge removes outright — no tombstone left behind — but never
			// an entry newer than the version it names.
			_, cur, _ := eng.AppendLoad(nil, "k-1")
			if eng.Purge("k-1", cur.Version-1) {
				t.Fatal("Purge removed an entry newer than its version")
			}
			if !eng.Purge("k-1", cur.Version) || eng.Purge("k-1", cur.Version) {
				t.Fatal("Purge transitions wrong")
			}
			if _, _, ok := eng.AppendLoad(nil, "k-1"); ok {
				t.Fatal("Purge left an entry")
			}
		})
	}
}

func TestShardedConcurrentSnapshotDoesNotBlockWrites(t *testing.T) {
	eng := NewSharded(Options{Shards: 16})
	for i := 0; i < 10_000; i++ {
		eng.Set(fmt.Sprintf("seed-%d", i), []byte("x"))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // continuous listings while writers run
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				n := 0
				eng.RangeBuckets(everyBucket(eng), func(string, Entry) bool { n++; return true })
				if n < 10_000 {
					t.Error("snapshot lost seeded keys")
					return
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 2_000; i++ {
				eng.Set(fmt.Sprintf("w%d-%d", w, i), []byte("y"))
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if got := eng.Len(); got != 18_000 {
		t.Fatalf("Len = %d, want 18000", got)
	}
}
