package store

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestShardFillsWholeCacheLines pins the padding: neighboring shards
// must never share a 64-byte line, whatever table grows to.
func TestShardFillsWholeCacheLines(t *testing.T) {
	if size := reflect.TypeFor[shard]().Size(); size%64 != 0 {
		t.Fatalf("shard is %d bytes, not a whole number of 64-byte cache lines", size)
	}
}

// TestValueSurvivesItsKey holds the record's immutability rule from the
// reader's side: a Value handed out by Get, Load, Range or RangeBuckets
// aliases the record it was read from, so it must stay byte for byte
// what it was — and have no spare capacity an append could write into —
// whatever later happens to its key, with the heap churned and
// collected in between.
func TestValueSurvivesItsKey(t *testing.T) {
	const key = "subject"
	want := []byte("value-of-odd-length-25-b.") // a copy by append would round its capacity up
	mutations := map[string]func(eng Engine, ft *fakeTime){
		"overwritten": func(eng Engine, _ *fakeTime) { eng.Set(key, []byte("another value"), 0) },
		"merged over": func(eng Engine, _ *fakeTime) {
			eng.Merge(key, Entry{Value: []byte("a newer value"), Version: eng.Clock().Next() + 1})
		},
		"deleted": func(eng Engine, _ *fakeTime) { eng.Delete(key) },
		"purged":  func(eng Engine, _ *fakeTime) { eng.Purge(key, math.MaxUint64) },
		"expired": func(eng Engine, ft *fakeTime) {
			ft.advance(time.Hour)
			eng.Get(key)
		},
		"swept": func(eng Engine, ft *fakeTime) {
			ft.advance(3 * time.Hour)
			eng.Sweep(0) // expired into a tombstone
			ft.advance(3 * time.Hour)
			eng.Sweep(0) // the tombstone collected
		},
	}
	for mname, mutate := range mutations {
		for _, ename := range []string{"sharded", "flat"} {
			t.Run(mname+"/"+ename, func(t *testing.T) {
				ft := newFakeTime()
				eng := engines(ft)[ename]
				eng.Set(key, want, time.Minute)
				var held [][]byte
				e, _ := eng.Get(key)
				held = append(held, e.Value)
				e, _ = eng.Load(key)
				held = append(held, e.Value)
				eng.Range(func(k string, e Entry) bool {
					if k == key {
						held = append(held, e.Value)
					}
					return true
				})
				eng.RangeBuckets([]int{BucketOf(key, eng.Buckets())}, func(k string, e Entry) bool {
					if k == key {
						held = append(held, e.Value)
					}
					return true
				})
				if len(held) != 4 {
					t.Fatalf("read the value %d times, want 4", len(held))
				}
				mutate(eng, ft)
				for i := 0; i < 2000; i++ { // reuse what the mutation freed
					eng.Set(fmt.Sprintf("churn-%d", i), bytes.Repeat([]byte{0xDB}, len(want)), 0)
				}
				runtime.GC()
				runtime.GC()
				for i, v := range held {
					if !bytes.Equal(v, want) || cap(v) != len(v) {
						t.Fatalf("value %d read before the key was %s is now %q (cap %d), want %q (cap %d)",
							i, mname, v, cap(v), want, len(want))
					}
				}
			})
		}
	}
}

// fillFresh merges n entries of a 9-byte key and a 128-byte value — the
// benchmark's shape — into eng at versions above ver, each key a fresh
// string as a request decoder would hand over, the value a shared
// buffer the engine copies.
func fillFresh(eng Engine, n int, ver uint64) {
	val := make([]byte, 128)
	for i := 0; i < n; i++ {
		eng.Merge(fmt.Sprintf("k%08d", i), Entry{Value: val, Version: ver + uint64(i) + 1})
	}
}

// TestTableBytesPerEntry bounds what a resident entry costs the heap:
// its record (a 144-byte size class for this shape) plus its share of
// the map's 32-byte slots, where a 64-byte Entry slot, a value
// allocation and a key allocation cost 238 bytes. Every key is written
// twice, so a record an overwrite left reachable — through the map's
// stored key, say — would double the figure.
func TestTableBytesPerEntry(t *testing.T) {
	const n = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng := NewSharded(Options{})
	fillFresh(eng, n, 0)
	fillFresh(eng, n, n)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(eng)
	perEntry := float64(after.HeapAlloc-before.HeapAlloc) / n
	objects := float64(after.HeapObjects-before.HeapObjects) / n
	t.Logf("%.1f heap bytes and %.2f heap objects per entry", perEntry, objects)
	if perEntry > 205 {
		t.Errorf("%.1f heap bytes per entry, want <= 205", perEntry)
	}
	if objects > 1.05 {
		t.Errorf("%.2f heap objects per entry, want one record each", objects)
	}
}

// TestOneAllocationPerRecord: a write that installs an entry allocates
// its record and nothing else — once the map has the slot, exactly one
// allocation; for new keys, one each plus the map's amortized growth.
func TestOneAllocationPerRecord(t *testing.T) {
	val := make([]byte, 128)
	for name, eng := range engines(newFakeTime()) {
		t.Run(name, func(t *testing.T) {
			eng.Set("k", val, 0)
			writes := map[string]func(){
				"Set":         func() { eng.Set("k", val, 0) },
				"Set+TTL":     func() { eng.Set("k", val, time.Hour) },
				"Merge":       func() { eng.Merge("k", Entry{Value: val, Version: eng.Clock().Next()}) },
				"Delete":      func() { eng.Delete("k") },
				"SetIfAbsent": func() { eng.Delete("k"); eng.SetIfAbsent("k", val) },
			}
			for wname, write := range writes {
				want := 1.0
				if wname == "SetIfAbsent" {
					want = 2 // the Delete that makes room, then the write
				}
				if got := testing.AllocsPerRun(100, write); got != want {
					t.Errorf("%s over a resident key: %.0f allocations, want %.0f", wname, got, want)
				}
			}
			const n = 50_000
			keys := make([]string, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("new-%d", i)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i, k := range keys {
				if i%2 == 0 {
					eng.Set(k, val, 0)
				} else {
					eng.Merge(k, Entry{Value: val, Version: uint64(i)})
				}
			}
			runtime.ReadMemStats(&after)
			if per := float64(after.Mallocs-before.Mallocs) / n; per > 1.05 {
				t.Errorf("%.3f allocations per new key, want 1 plus map growth (<= 1.05)", per)
			}
		})
	}
}

// TestRecoveryBuildsEachRecordOnce: replay hands each decoded key and
// value to the table once — one allocation per record replayed, plus
// the map's growth and a constant for the files — never a decoded copy
// that is then copied again.
func TestRecoveryBuildsEachRecordOnce(t *testing.T) {
	const n = 20_000
	dir := t.TempDir()
	wo := WALOptions{Dir: dir, Fsync: FsyncNever}
	s, err := OpenSharded(Options{}, wo)
	if err != nil {
		t.Fatal(err)
	}
	fillFresh(s, n, 0)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	fillFresh(s, n, n) // a log tail rewriting every key
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := OpenSharded(Options{}, wo)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := r.Recovery()
	if rs.SnapshotEntries != n || rs.WALRecords != n || r.Len() != n {
		t.Fatalf("recovered %d entries + %d records into %d keys, want %d each", rs.SnapshotEntries, rs.WALRecords, r.Len(), n)
	}
	if per := float64(after.Mallocs-before.Mallocs) / (2 * n); per > 1.1 {
		t.Errorf("%.3f allocations per replayed record, want 1 plus map growth (<= 1.1)", per)
	}
}

// BenchmarkMergeNewKey is the CI twin of TestTableBytesPerEntry:
// scripts/allocgate.sh holds its B/op — a new key's record plus its
// share of the map's growth — to a ceiling. Run it at a fixed count
// (-benchtime 100000x) so the table it grows is the same size each time.
func BenchmarkMergeNewKey(b *testing.B) {
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%08d", i)
	}
	val := make([]byte, 128)
	eng := NewSharded(Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i, k := range keys {
		eng.Merge(k, Entry{Value: val, Version: uint64(i + 1)})
	}
}
