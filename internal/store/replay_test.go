package store

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"
)

// cloneReplay rebuilds an engine from dir the way recovery did while
// every record it read was cloned and installed over whatever it
// replaced: its tables sized by the helper recovery sizes them with,
// then every segment, oldest first, up to the first torn or corrupt
// record. It reads the files without changing them.
func cloneReplay(t *testing.T, dir string, o Options) *Sharded {
	t.Helper()
	ref := NewSharded(o)
	apply := func(r rec) {
		k := r.key()
		tb := &ref.shardFor(k).t
		if r.purge() {
			tb.purge(k, math.MaxUint64)
			return
		}
		i, tag, _ := tb.find(k)
		tb.replace(i, tag, r.clone())
	}
	segs := scanDir(dir)
	reserveFor(ref, dir, segs)
	var rr recordReader
	for _, sg := range segs {
		b, err := os.ReadFile(segPath(dir, sg.gen))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rr.open(bytes.NewReader(b), sg.size); err != nil {
			break
		}
		if _, left, _ := rr.each(apply); left > 0 {
			break
		}
	}
	return ref
}

// TestReplayInPlaceMatchesClone replays random histories twice: through
// recovery, whose install rewrites a resident record of the same length
// in place, and through cloneReplay, which clones every record. Both
// must build the same tables — entries, slot and live counts, Merkle
// roots. The histories overwrite keys at one length and at another,
// delete them (tombstones of the same length as an empty value), purge
// them, sometimes Snapshot midway, span several incarnations and end,
// half the time, in a torn tail. The floor is small enough that the
// cleaner's passes land mid-history too, copies and purges dropped.
func TestReplayInPlaceMatchesClone(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	lengths := []int{0, 3, 128, 129}
	o := Options{Shards: 4, MerkleBuckets: 64}
	for round := 0; round < 24; round++ {
		dir := t.TempDir()
		wo := WALOptions{Dir: dir, Fsync: FsyncNever, SnapshotBytes: 512}
		for open := rng.Intn(3); open >= 0; open-- {
			s, err := OpenSharded(o, wo)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			for op := 0; op < 300; op++ {
				k := fmt.Sprintf("key-%02d", rng.Intn(40))
				switch p := rng.Intn(100); {
				case p < 60:
					s.Set(k, make([]byte, lengths[rng.Intn(len(lengths))]))
				case p < 80:
					s.Delete(k)
				case p < 90:
					s.Purge(k, math.MaxUint64)
				case p < 99:
					v := make([]byte, lengths[rng.Intn(len(lengths))])
					s.Merge(k, Entry{Value: v, Version: s.Clock().Next(), Tombstone: len(v) == 0 && rng.Intn(2) == 0})
				default:
					if err := s.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(2) == 0 {
			segs := scanDir(dir)
			path := segPath(dir, segs[len(segs)-1].gen)
			if st, err := os.Stat(path); err == nil && st.Size() > magicLen {
				cut := min(st.Size()-magicLen, 1+rng.Int63n(300))
				if err := os.Truncate(path, st.Size()-cut); err != nil {
					t.Fatal(err)
				}
			}
		}

		want := cloneReplay(t, dir, o)
		got, err := OpenSharded(o, wo)
		if err != nil {
			t.Fatalf("round %d: reopen: %v", round, err)
		}
		diffStates(t, fmt.Sprintf("round %d", round), rawState(got), rawState(want))
		for i := range got.shards {
			g, w := &got.shards[i].t, &want.shards[i].t
			if g.n != w.n || g.used != w.used || g.live != w.live {
				t.Fatalf("round %d shard %d: n/used/live %d/%d/%d, cloning replay %d/%d/%d", round, i, g.n, g.used, g.live, w.n, w.used, w.live)
			}
			// The live image the cleaner paces by is what the records
			// resident add up to, however they got there.
			var image int64
			for j, tag := range g.tags {
				if tag&tagFull != 0 {
					image += frameLen(g.slots[j])
				}
			}
			if g.image != image || w.image != image {
				t.Fatalf("round %d shard %d: image %d, cloning replay %d, records %d", round, i, g.image, w.image, image)
			}
		}
		if g, w := got.Digest().Root(), want.Digest().Root(); g != w {
			t.Fatalf("round %d: Merkle root %x, cloning replay %x", round, g, w)
		}
		if err := got.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayAllocatesPerKey reopens a log holding n keys each written k
// times, with no checkpoint: the replay rewrites each key's record in
// place after its first, so the reopen allocates about n records — not
// n × k — on top of what opening the engine costs anyway (measured on
// an empty directory). Nor does it count those installs in
// store.table.rewrites, which is the served writes' in-place share.
func TestReplayAllocatesPerKey(t *testing.T) {
	const n, k = 4000, 8
	o := Options{Shards: 1, MerkleBuckets: 64}
	open := func(dir string) (*Sharded, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := OpenSharded(o, WALOptions{Dir: dir, Fsync: FsyncNever})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return s, after.Mallocs - before.Mallocs
	}
	empty, base := open(t.TempDir())
	empty.Close()

	dir := t.TempDir()
	s, _ := open(dir)
	val := make([]byte, 128)
	for range k {
		for i := range n {
			s.Set(fmt.Sprintf("k%08d", i), val)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rewrites := counter("store.table.rewrites")
	r, allocs := open(dir)
	defer r.Close()
	if rs := r.Recovery(); rs.WALRecords != n*k || r.Len() != n {
		t.Fatalf("replayed %d records into %d keys, want %d into %d", rs.WALRecords, r.Len(), n*k, n)
	}
	// The index doubles from 8 slots past n: two allocations a step.
	const slack = 64
	if extra := allocs - base; extra > n+slack {
		t.Errorf("the reopen allocated %d more than an empty one, want at most %d records + %d (%d records replayed)", extra, n, slack, n*k)
	}
	if d := counter("store.table.rewrites") - rewrites; d != 0 {
		t.Errorf("replay counted %d in-place installs in store.table.rewrites, want 0", d)
	}
}
