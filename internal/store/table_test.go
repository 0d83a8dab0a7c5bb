package store

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

// TestValueSurvivesItsKey holds the record's aliasing rule from the
// reader's side: a Value handed out by Get or AppendLoad is a copy, so
// it must stay byte for byte what it was — and have no spare capacity
// an append could write into — whatever later happens to its key, with
// the heap churned and collected in between. Each reader's value is
// held on its own, in a fresh engine, and the same-length writes are
// the ones that rewrite the record in place, which a value aliasing
// the record would see.
func TestValueSurvivesItsKey(t *testing.T) {
	const key = "subject"
	want := []byte("value-of-odd-length-25-b.") // a copy by append would round its capacity up
	mutations := map[string]func(eng *Sharded, ft *fakeTime){
		"overwritten": func(eng *Sharded, _ *fakeTime) { eng.Set(key, []byte("another value")) },
		"overwritten same length": func(eng *Sharded, _ *fakeTime) {
			eng.Set(key, []byte("another value, 25 bytes.."))
		},
		"merged over": func(eng *Sharded, _ *fakeTime) {
			eng.Merge(key, Entry{Value: []byte("a newer value"), Version: eng.Clock().Next() + 1})
		},
		"merged over same length": func(eng *Sharded, _ *fakeTime) {
			eng.Merge(key, Entry{Value: []byte("a newer value of 25 bytes"), Version: eng.Clock().Next() + 1})
		},
		"deleted": func(eng *Sharded, _ *fakeTime) { eng.Delete(key) },
		"purged":  func(eng *Sharded, _ *fakeTime) { eng.Purge(key, math.MaxUint64) },
		"swept": func(eng *Sharded, ft *fakeTime) {
			eng.Delete(key)
			ft.advance(3 * time.Hour)
			eng.Sweep(0) // the tombstone collected
		},
	}
	readers := map[string]func(*Sharded) (Entry, bool){
		"Get": func(eng *Sharded) (Entry, bool) { return eng.Get(key) },
		"AppendLoad": func(eng *Sharded) (Entry, bool) {
			_, e, ok := eng.AppendLoad(nil, key)
			return e, ok
		},
	}
	for mname, mutate := range mutations {
		for _, ename := range []string{"sharded", "flat"} {
			t.Run(mname+"/"+ename, func(t *testing.T) {
				for rname, read := range readers {
					ft := newFakeTime()
					eng := engines(ft)[ename]
					eng.Set(key, want)
					e, ok := read(eng)
					if !ok {
						t.Fatalf("%s missed the key it was just given", rname)
					}
					held := e.Value
					mutate(eng, ft)
					mutate(eng, ft)             // a second write, over the record the first installed
					for i := 0; i < 2000; i++ { // reuse what the mutation freed
						eng.Set(fmt.Sprintf("churn-%d", i), bytes.Repeat([]byte{0xDB}, len(want)))
					}
					runtime.GC()
					runtime.GC()
					if !bytes.Equal(held, want) || cap(held) != len(held) {
						t.Fatalf("value %s read before the key was %s is now %q (cap %d), want %q (cap %d)",
							rname, mname, held, cap(held), want, len(want))
					}
				}
			})
		}
	}
}

// TestLentValuesSurviveInPlaceWrites is the aliasing rule under
// concurrency, for go test -race: readers keep every Value Get hands
// them while writers overwrite the same few keys with values of one
// length — the writes that rewrite the record in place — and a
// checkpoint loop and a digest loop run alongside. Each held value is a
// copy and must read back as it did when it was returned; a value that
// aliased the record would change under those writes, and the race
// detector would see the write race the reader's.
func TestLentValuesSurviveInPlaceWrites(t *testing.T) {
	s, err := OpenSharded(Options{Shards: 4, MerkleBuckets: 64}, WALOptions{Dir: t.TempDir(), Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := []string{"a", "b", "c", "d"}
	value := func(w, i int) []byte { return []byte(fmt.Sprintf("w%d-%08d", w, i)) }
	for _, k := range keys {
		s.Set(k, value(0, 0))
	}
	rewrites := counter("store.table.rewrites")
	const writers, readers, per = 3, 3, 2000
	stop := make(chan struct{})
	var bg sync.WaitGroup
	var passes atomic.Int64 // calls the two loops completed; reads and writes go on until there are 8
	for _, loop := range []func() error{
		s.Snapshot,
		func() error { s.Digest(); return nil },
	} {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
					if err := loop(); err != nil {
						t.Error(err)
						return
					}
					passes.Add(1)
				}
			}
		}()
	}
	type heldValue struct {
		v   []byte
		was string
	}
	held := make([][]heldValue, readers)
	var wg sync.WaitGroup
	for w := 1; w <= writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per || passes.Load() < 8; i++ {
				k := keys[(w+i)%len(keys)]
				if i%2 == 0 {
					s.Set(k, value(w, i))
				} else {
					s.Merge(k, Entry{Value: value(w, i), Version: s.Clock().Next()})
				}
			}
		}()
	}
	for r := range held {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per || passes.Load() < 8; i++ {
				if e, ok := s.Get(keys[(r+i)%len(keys)]); ok {
					held[r] = append(held[r], heldValue{e.Value, string(e.Value)})
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	for r, hs := range held {
		for _, h := range hs {
			if string(h.v) != h.was {
				t.Fatalf("reader %d held %q, which now reads %q", r, h.was, h.v)
			}
		}
	}
	if counter("store.table.rewrites") == rewrites {
		t.Fatal("no write rewrote a record in place: the test exercised nothing")
	}
}

// TestRecordKeyReadBack: every probe hit compares the caller's key with
// the one read back out of a record, and every listing hands that key
// out, so a key must read back byte-exact whatever its record's header
// looks like — empty, 9 bytes, or past 64 KiB (the 4-byte klen), and
// as a tombstone.
func TestRecordKeyReadBack(t *testing.T) {
	keys := map[string]string{
		"empty":   "",
		"9 bytes": "nine-byte",
		"64KiB+1": strings.Repeat("L", 64<<10+1),
	}
	val := []byte("value")
	// Each write leaves one entry under k and reports whether it is a
	// tombstone.
	writes := map[string]func(eng *Sharded, ft *fakeTime, k string) bool{
		"Set": func(eng *Sharded, _ *fakeTime, k string) bool { eng.Set(k, val); return false },
		"Delete": func(eng *Sharded, _ *fakeTime, k string) bool {
			eng.Set(k, val)
			eng.Delete(k)
			return true
		},
		"Merge": func(eng *Sharded, _ *fakeTime, k string) bool {
			eng.Merge(k, Entry{Value: val, Version: eng.Clock().Next()})
			return false
		},
		"Merge tombstone": func(eng *Sharded, _ *fakeTime, k string) bool {
			eng.Merge(k, Entry{Version: eng.Clock().Next(), Tombstone: true})
			return true
		},
	}
	for kname, k := range keys {
		for wname, write := range writes {
			for _, ename := range []string{"sharded", "flat"} {
				t.Run(kname+"/"+wname+"/"+ename, func(t *testing.T) {
					ft := newFakeTime()
					eng := engines(ft)[ename]
					tomb := write(eng, ft, k)
					if _, e, ok := eng.AppendLoad(nil, k); !ok || e.Tombstone != tomb {
						t.Fatalf("AppendLoad = %v, tombstone %v; want found, tombstone %v", ok, e.Tombstone, tomb)
					}
					if _, ok := eng.Get(k); ok == tomb {
						t.Fatalf("Get found %v, want %v", ok, !tomb)
					}
					listed := func() (n int) {
						check := func(got string, e Entry) bool {
							if got != k || e.Tombstone != tomb {
								t.Errorf("listed a %d-byte key (tombstone %v), want the %d-byte key (tombstone %v)",
									len(got), e.Tombstone, len(k), tomb)
							}
							n++
							return true
						}
						want := make([]bool, eng.Buckets())
						want[BucketOf(k, eng.Buckets())] = true
						eng.RangeBuckets(want, check)
						return n
					}
					if n := listed(); n != 1 {
						t.Fatalf("RangeBuckets listed %d entries, want one", n)
					}
					if _, applied := eng.Merge(k, Entry{Value: val, Version: 1}); applied {
						t.Fatal("a stale Merge was applied: it did not find the resident entry")
					}
					eng.Set(k, []byte("again"))
					if live, tombs := eng.Counts(); live != 1 || tombs != 0 {
						t.Fatalf("after an overwrite: %d live, %d tombstones, want the one entry", live, tombs)
					}
					if !eng.Purge(k, math.MaxUint64) {
						t.Fatal("Purge did not find the entry")
					}
					if live, tombs := eng.Counts(); live+tombs != 0 || listed() != 0 {
						t.Fatalf("after Purge: %d live, %d tombstones, want none", live, tombs)
					}
				})
			}
		}
	}
}

// slotBound is the slot count a table that has held at most n entries
// at once may have: the smallest power of two, not below minSlots,
// whose 7/8 holds them.
func slotBound(n int) int {
	size := minSlots
	for n > size/8*7 {
		size *= 2
	}
	return size
}

// TestTableChurnStaysBounded holds the index to its bound under the
// churn anti-entropy purges and tombstone GC make: distinct keys
// inserted and purged at a constant resident count, a third of them
// tombstones. Purged slots are marked deleted and count toward the 7/8
// limit, so the table must reclaim them by rebuilding at its size —
// never by doubling past what the resident entries need — and must
// still find every resident key with exact counts.
func TestTableChurnStaysBounded(t *testing.T) {
	val := make([]byte, 8)
	for _, resident := range []int{1, 6, 7, 100, 895, 896} {
		t.Run(fmt.Sprint(resident), func(t *testing.T) {
			tb := newTable(func(string) {})
			bound := slotBound(resident + 1) // each insert precedes its purge
			tomb := map[string]bool{}        // the model: resident key → is a tombstone
			var order []string
			next := 0
			insert := func() {
				k := fmt.Sprintf("churn-%d", next)
				next++
				tomb[k] = next%3 == 0
				if tomb[k] {
					tb.del(k, uint64(next))
				} else {
					tb.set(k, val, uint64(next))
				}
				order = append(order, k)
			}
			check := func(round int) {
				live := 0
				for k, isTomb := range tomb {
					if !isTomb {
						live++
					}
					if _, e, ok := tb.appendLoad(nil, k); !ok || e.Tombstone != isTomb {
						t.Fatalf("round %d: %s found %v (tombstone %v), want found (tombstone %v)", round, k, ok, e.Tombstone, isTomb)
					}
				}
				if tb.size() != len(tomb) || tb.live != live {
					t.Fatalf("round %d: size %d, live %d; want %d, %d", round, tb.size(), tb.live, len(tomb), live)
				}
			}
			for len(order) < resident {
				insert()
			}
			for round := 0; round < 4*bound+64; round++ {
				insert()
				k := order[0]
				order = order[1:]
				if !tb.purge(k, math.MaxUint64) {
					t.Fatalf("round %d: purge of resident %s failed", round, k)
				}
				delete(tomb, k)
				if _, _, ok := tb.appendLoad(nil, k); ok {
					t.Fatalf("round %d: purged %s is still found", round, k)
				}
				if len(tb.slots) > bound || tb.used > len(tb.tags)/8*7 {
					t.Fatalf("round %d: %d slots, %d used, at %d resident; want <= %d slots, used <= 7/8",
						round, len(tb.slots), tb.used, len(tomb), bound)
				}
				if round%61 == 0 {
					check(round)
				}
			}
			check(-1)
		})
	}
}

// TestTableSweepVisitsEachEntryOnce: a sweep removes the slot it
// stands on as it walks, so it must meet every entry exactly once —
// old tombstones collected once each, values and young tombstones
// kept — with deleted slots from earlier purges among the entries.
func TestTableSweepVisitsEachEntryOnce(t *testing.T) {
	ft := newFakeTime()
	now := ft.now()
	version := func(age time.Duration) uint64 { return uint64(now.Add(-age).UnixMilli()) << logicalBits }
	tb := newTable(func(string) {})
	const n = 500
	for i := 0; i < n; i++ {
		tb.set(fmt.Sprintf("filler-%d", i), []byte("v"), version(0))
		tb.set(fmt.Sprintf("value-%d", i), []byte("v"), version(0))
		tb.set(fmt.Sprintf("old-value-%d", i), []byte("v"), version(time.Hour))
		tb.del(fmt.Sprintf("old-tomb-%d", i), version(time.Hour))
		tb.del(fmt.Sprintf("new-tomb-%d", i), version(0))
	}
	for i := 0; i < n; i++ {
		tb.purge(fmt.Sprintf("filler-%d", i), math.MaxUint64)
	}
	purgedKeys := map[string]int{}
	gcBefore := now.Add(-time.Minute).UnixMilli()
	if purged := tb.sweep(gcBefore, func(k string) { purgedKeys[k]++ }); purged != n || len(purgedKeys) != n {
		t.Fatalf("sweep purged %d (%d distinct keys), want %d", purged, len(purgedKeys), n)
	}
	for k, times := range purgedKeys {
		if !strings.HasPrefix(k, "old-tomb-") || times != 1 {
			t.Fatalf("sweep purged %s %d times; want only the old tombstones, once each", k, times)
		}
	}
	if tb.size() != 3*n || tb.live != 2*n {
		t.Fatalf("after the sweep: size %d, live %d; want %d, %d", tb.size(), tb.live, 3*n, 2*n)
	}
	// Nothing is left for the next pass.
	if purged := tb.sweep(gcBefore, nil); purged != 0 || tb.size() != 3*n {
		t.Fatalf("second sweep purged %d, left %d; want 0, %d", purged, tb.size(), 3*n)
	}
}

// fillFresh merges n entries of a 9-byte key and a 128-byte value — the
// benchmark's shape — into eng at versions above ver, each key a fresh
// string as a request decoder would hand over, the value a shared
// buffer the engine copies.
func fillFresh(eng *Sharded, n int, ver uint64) {
	val := make([]byte, 128)
	for i := 0; i < n; i++ {
		eng.Merge(fmt.Sprintf("k%08d", i), Entry{Value: val, Version: ver + uint64(i) + 1})
	}
}

// TestTableBytesPerEntry bounds what a resident entry costs the heap:
// its record (a 144-byte size class for this shape) plus its share of
// the index's 17-byte slots (a rec and a tag), where a 32-byte
// map[string]rec slot cost 197 bytes and a 64-byte Entry slot, a value
// allocation and a key allocation 238. Every key is written twice, so a
// record an overwrite left reachable would double the figure.
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
	if perEntry > 175 {
		t.Errorf("%.1f heap bytes per entry, want <= 175", perEntry)
	}
	if objects > 1.05 {
		t.Errorf("%.2f heap objects per entry, want one record each", objects)
	}
}

// TestOneAllocationPerRecord: a write allocates at most its record, and
// only when the record changes length. An overwrite of the same length
// rewrites the record in place (store.table.rewrites advances) and
// allocates nothing, whatever read came before it, since a read hands
// out a copy: a Get costs 1, the copy it returns, and an AppendLoad
// nothing, its copy going into its caller's buffer. The read and the
// write after it are billed apart. A change of length allocates the new
// record. A tombstone and an empty value are the same length, so a
// delete of an empty value and a set over its tombstone stay in place.
// New keys cost one allocation each plus the index's amortized growth.
func TestOneAllocationPerRecord(t *testing.T) {
	val, shorter := make([]byte, 128), make([]byte, 64)
	for name, eng := range engines(newFakeTime()) {
		t.Run(name, func(t *testing.T) {
			eng.Set("k", val)
			writes := map[string]func(v []byte){
				"Set":   func(v []byte) { eng.Set("k", v) },
				"Merge": func(v []byte) { eng.Merge("k", Entry{Value: v, Version: eng.Clock().Next()}) },
			}
			buf := make([]byte, 0, 2*len(val))
			reads := map[string]struct {
				run    func()
				allocs float64
			}{
				"Get":        {func() { eng.Get("k") }, 1}, // its copy
				"AppendLoad": {func() { buf, _, _ = eng.AppendLoad(buf[:0], "k") }, 0},
			}
			type allocCase struct {
				what     string
				run      func()
				read     func() // what run begins with, measured alone and not billed to the case (nil: none)
				want     float64
				rewrites int // in-place rewrites per run, checked where nonzero
			}
			var cases []allocCase
			for rname, read := range reads {
				cases = append(cases, allocCase{"a " + rname + " alone", read.run, nil, read.allocs, 0})
			}
			for wname, write := range writes {
				cases = append(cases,
					allocCase{wname + " of the same length", func() { write(val) }, nil, 0, 1},
					allocCase{wname + " changing the length, twice", func() { write(shorter); write(val) }, nil, 2, 0})
				for rname, read := range reads {
					cases = append(cases,
						allocCase{wname + " after a " + rname, func() { read.run(); write(val) }, read.run, 0, 1},
						allocCase{"two of " + wname + " after a " + rname, func() { read.run(); write(val); write(val) }, read.run, 0, 2})
				}
			}
			cases = append(cases,
				allocCase{"Delete over a tombstone", func() { eng.Delete("k") }, nil, 0, 0},
				allocCase{"Delete of an empty value, Set of one", func() { eng.Delete("k"); eng.Set("k", nil) }, nil, 0, 0},
				allocCase{"Delete of a value, Set of one", func() { eng.Delete("k"); eng.Set("k", val) }, nil, 2, 0})
			for _, c := range cases {
				runs, rewrites := 0, counter("store.table.rewrites")
				got := testing.AllocsPerRun(100, func() { runs++; c.run() })
				if c.read != nil {
					got -= testing.AllocsPerRun(100, c.read)
				}
				if got != c.want {
					t.Errorf("%s over a resident key: %.0f allocations, want %.0f", c.what, got, c.want)
				}
				if got, want := counter("store.table.rewrites")-rewrites, int64(runs*c.rewrites); c.rewrites > 0 && got != want {
					t.Errorf("%s over a resident key: %d records rewritten in place, want %d", c.what, got, want)
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
					eng.Set(k, val)
				} else {
					eng.Merge(k, Entry{Value: val, Version: uint64(i)})
				}
			}
			runtime.ReadMemStats(&after)
			if per := float64(after.Mallocs-before.Mallocs) / n; per > 1.05 {
				t.Errorf("%.3f allocations per new key, want 1 plus index growth (<= 1.05)", per)
			}
		})
	}
}

// TestRecoveryBuildsEachRecordOnce: replay hands each decoded key and
// value to the table once — at most one allocation per record replayed
// (none for this log tail, whose records rewrite the image's in place),
// plus the index's growth and a constant for the files — never a
// decoded copy that is then copied again.
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
	if rs.WALRecords != 2*n || r.Len() != n {
		t.Fatalf("recovered %d records into %d keys, want %d into %d", rs.WALRecords, r.Len(), 2*n, n)
	}
	if per := float64(after.Mallocs-before.Mallocs) / (2 * n); per > 1.1 {
		t.Errorf("%.3f allocations per replayed record, want 1 plus index growth (<= 1.1)", per)
	}
}

// BenchmarkMergeNewKey is the CI twin of TestTableBytesPerEntry:
// scripts/allocgate.sh holds its B/op — a new key's record plus its
// share of the index's growth — to a ceiling. Run it at a fixed count
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
