package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// trackFS wraps the default segment opener, recording each file's
// written size and its durable floor (the size at the last successful
// fsync). The crash suite uses those floors to pick legal crash
// points: anything at or above the floor may be torn away, anything
// below it must survive.
type trackFS struct {
	mu    sync.Mutex
	files map[string]*trackFile
}

func newTrackFS() *trackFS {
	return &trackFS{files: map[string]*trackFile{}}
}

func (fs *trackFS) open(path string) (WALFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	tf := &trackFile{f: f, path: path}
	if st, err := f.Stat(); err == nil {
		tf.size = st.Size()
	}
	fs.mu.Lock()
	fs.files[path] = tf
	fs.mu.Unlock()
	return tf, nil
}

// reset forgets every tracked file: called before a reopen so segments
// recovered in an earlier incarnation are never cut again (their
// content is the baseline the next round's acked-floor checks build
// on).
func (fs *trackFS) reset() {
	fs.mu.Lock()
	fs.files = map[string]*trackFile{}
	fs.mu.Unlock()
}

func (fs *trackFS) tracked() []*trackFile {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]*trackFile, 0, len(fs.files))
	for _, tf := range fs.files {
		out = append(out, tf)
	}
	return out
}

type trackFile struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	size   int64
	synced int64
}

func (tf *trackFile) Write(p []byte) (int, error) {
	n, err := tf.f.Write(p)
	tf.mu.Lock()
	tf.size += int64(n)
	tf.mu.Unlock()
	return n, err
}

func (tf *trackFile) Sync() error {
	if err := tf.f.Sync(); err != nil {
		return err
	}
	tf.mu.Lock()
	tf.synced = tf.size
	tf.mu.Unlock()
	return nil
}

func (tf *trackFile) Close() error { return tf.f.Close() }

func (tf *trackFile) floors() (synced, size int64) {
	tf.mu.Lock()
	defer tf.mu.Unlock()
	return tf.synced, tf.size
}

// refReplay is the reference model: a straight-line, single-map replay
// of the directory's current on-disk state, written independently of
// the engine's recovery path (whole-file reads, its own directory
// listing; only the record codec is shared). It picks the newest
// loadable checkpoint, then applies the records of every later
// segment oldest-first, last-record-wins, stopping at the first torn
// or corrupt record (and ignoring later segments, which recovery
// discards for the same reason). Interrupted .tmp checkpoints and
// segments a checkpoint already covers are ignored.
func refReplay(t *testing.T, dir string) map[string]Entry {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ref readdir: %v", err)
	}
	var segs, snaps []int
	for _, de := range des {
		var g int
		var rest string
		if n, _ := fmt.Sscanf(de.Name(), "wal.%d%s", &g, &rest); n == 1 {
			segs = append(segs, g)
		} else if n, _ := fmt.Sscanf(de.Name(), "snap.%d%s", &g, &rest); n == 1 {
			snaps = append(snaps, g)
		}
	}
	sort.Ints(segs)
	sort.Ints(snaps)

	// records decodes b as back-to-back frames, reporting whether it
	// got through all of it.
	records := func(b []byte, fn func(key string, e Entry, purge bool)) (n int, whole bool) {
		for len(b) > 0 {
			r, used, err := decodeFrame(b)
			if err != nil {
				return n, false
			}
			fn(r.key(), r.entry(), r.purge())
			b = b[used:]
			n++
		}
		return n, true
	}

	m := map[string]Entry{}
	snapGen := 0
	for i := len(snaps) - 1; i >= 0; i-- {
		b, err := os.ReadFile(fmt.Sprintf("%s/snap.%d", dir, snaps[i]))
		if err != nil || len(b) < magicLen+4 || string(b[:magicLen]) != snapMagic {
			continue
		}
		cand := map[string]Entry{}
		n, whole := records(b[magicLen+4:], func(key string, e Entry, _ bool) { cand[key] = e })
		if !whole || uint32(n) != binary.LittleEndian.Uint32(b[magicLen:]) {
			continue
		}
		m, snapGen = cand, snaps[i]
		break
	}
	for _, g := range segs {
		if g <= snapGen {
			continue
		}
		b, err := os.ReadFile(fmt.Sprintf("%s/wal.%d", dir, g))
		if err != nil {
			t.Fatalf("ref read gen %d: %v", g, err)
		}
		if len(b) < magicLen || string(b[:magicLen]) != walMagic {
			break
		}
		_, whole := records(b[magicLen:], func(key string, e Entry, purge bool) {
			if purge {
				delete(m, key)
			} else {
				m[key] = e
			}
		})
		if !whole {
			break
		}
	}
	return m
}

// TestCrashRecoveryProperty is the durability property suite: a
// randomized op stream runs against a persistent engine whose fsync
// points are controlled by the test, then the process "crashes" —
// files close with no final flush and the unsynced tails are torn at
// random byte offsets or corrupted with a byte flip. On reopen the
// engine must equal the reference replay of the surviving bytes
// exactly, and every write acked durable (below a fsync floor) must
// still be there. Runs under -count=2 -race in CI like
// TestStoreProperty.
func TestCrashRecoveryProperty(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("crash property seed %d", seed)

	ft := newFakeTime()
	dir := t.TempDir()
	tfs := newTrackFS()
	const shards = 4
	opts := Options{Shards: shards, MerkleBuckets: 64, Now: ft.now, TombstoneGC: time.Minute}
	// FsyncNever keeps every fsync under test control: the explicit
	// Sync barrier below and snapshot rotations are the only durability
	// points, so the acked floor is exactly what the test tracked.
	wopts := WALOptions{Dir: dir, Fsync: FsyncNever, SnapshotBytes: 4 << 10, OpenFile: tfs.open}
	open := func() *Sharded {
		tfs.reset()
		s, err := OpenSharded(opts, wopts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return s
	}
	s := open()

	keys := make([]string, 96)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	randKey := func() string { return keys[rng.Intn(len(keys))] }
	randVal := func() []byte {
		v := make([]byte, rng.Intn(64))
		rng.Read(v)
		return v
	}

	const rounds = 4
	for round := 0; round < rounds; round++ {
		// ackedState is the raw engine state at the last Sync barrier;
		// keys untouched since then must come back exactly after the
		// crash.
		var ackedState map[string]Entry
		touched := map[string]bool{}
		sweptSinceSync := false
		snapsBefore := counter("store.wal.snapshots")

		nops := 1200 + rng.Intn(800)
		for i := 0; i < nops; i++ {
			switch r := rng.Intn(100); {
			case r < 40:
				k := randKey()
				s.Set(k, randVal())
				touched[k] = true
			case r < 52:
				k := randKey()
				s.Delete(k)
				touched[k] = true
			case r < 70:
				k := randKey()
				e := Entry{Version: s.Clock().Last() - uint64(rng.Intn(3)) + uint64(rng.Intn(6))}
				if rng.Intn(4) == 0 {
					e.Tombstone = true
				} else {
					e.Value = randVal()
				}
				s.Merge(k, e)
				touched[k] = true
			case r < 75:
				// Aimed at the resident version or the one below it, so
				// half the purges are declined and must leave no record.
				k := randKey()
				_, cur, _ := s.AppendLoad(nil, k)
				s.Purge(k, cur.Version-uint64(rng.Intn(2)))
				touched[k] = true
			case r < 82:
				s.Get(randKey())
			case r < 88:
				ft.advance(time.Duration(rng.Intn(30)) * time.Millisecond)
			case r < 93:
				s.Sweep(rng.Intn(200))
				sweptSinceSync = true
			default:
				if err := s.Sync(); err != nil {
					t.Fatalf("round %d: sync: %v", round, err)
				}
				ackedState = rawState(s)
				touched = map[string]bool{}
				sweptSinceSync = false
			}
		}
		if err := s.Err(); err != nil {
			t.Fatalf("round %d: engine poisoned mid-run: %v", round, err)
		}

		// Crash: close with no final flush, then tear the unsynced
		// region of each live segment — truncate at a random offset or
		// flip a byte (a corrupt CRC), both of which recovery must
		// refuse to replay past.
		s.wal.close(false)
		// The crash windows around a checkpoint are only exercised if
		// the size trigger still fires at this floor every round.
		if counter("store.wal.snapshots") == snapsBefore {
			t.Fatalf("round %d: no size-triggered checkpoint in %d ops (seed %d)", round, nops, seed)
		}
		for _, tf := range tfs.tracked() {
			st, err := os.Stat(tf.path)
			if err != nil {
				continue // rotated away: its content lives in a snapshot now
			}
			synced, _ := tf.floors()
			size := st.Size()
			if size <= synced || rng.Intn(2) == 0 {
				continue
			}
			cut := synced + rng.Int63n(size-synced+1)
			if cut < size && rng.Intn(3) == 0 {
				f, err := os.OpenFile(tf.path, os.O_RDWR, 0)
				if err != nil {
					t.Fatalf("corrupt %s: %v", tf.path, err)
				}
				var b [1]byte
				f.ReadAt(b[:], cut)
				b[0] ^= 0xff
				f.WriteAt(b[:], cut)
				f.Close()
			} else if err := os.Truncate(tf.path, cut); err != nil {
				t.Fatalf("truncate %s: %v", tf.path, err)
			}
		}

		want := refReplay(t, dir)
		s = open()
		got := rawState(s)
		diffStates(t, fmt.Sprintf("round %d (seed %d)", round, seed), got, want)

		wantLive := 0
		for _, e := range want {
			if !e.Tombstone {
				wantLive++
			}
		}
		if s.Len() != wantLive {
			t.Fatalf("round %d: recovered Len = %d, want %d", round, s.Len(), wantLive)
		}

		// Acked-durability floor: every key untouched since the last
		// Sync barrier must survive the crash byte-identically.
		if ackedState != nil && !sweptSinceSync {
			for k, e := range ackedState {
				if touched[k] {
					continue
				}
				g, ok := got[k]
				if !ok || !reflect.DeepEqual(g, e) {
					t.Fatalf("round %d: acked write lost: key %q got %+v want %+v (seed %d)",
						round, k, g, e, seed)
				}
			}
		}
	}

	// Final round: a clean close must bring back the state exactly.
	final := rawState(s)
	if err := s.Close(); err != nil {
		t.Fatalf("final close: %v", err)
	}
	tfs.reset()
	r, err := OpenSharded(opts, wopts)
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	defer r.Close()
	diffStates(t, "clean close", rawState(r), final)
}

// copyFiles snapshots the named files of dir into memory.
func copyFiles(t *testing.T, dir string, match func(name string) bool) map[string][]byte {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	out := map[string][]byte{}
	for _, de := range des {
		if !match(de.Name()) {
			continue
		}
		b, err := os.ReadFile(dir + "/" + de.Name())
		if err != nil {
			t.Fatalf("read %s: %v", de.Name(), err)
		}
		out[de.Name()] = b
	}
	return out
}

// TestCrashCheckpointWindows puts the directory into the two states a
// crash inside a checkpoint can leave — the checkpoint renamed into
// place but the segments it covers not yet deleted, and the log
// rotated but the checkpoint still a partial .tmp — plus the one that
// takes a bad disk: the newest checkpoint unreadable halfway through,
// with everything it covers still there. All three must recover
// exactly the state the engine held, agreeing with the independent
// reference replay, and clear the leftovers.
func TestCrashCheckpointWindows(t *testing.T) {
	isSeg := func(name string) bool { return strings.HasPrefix(name, "wal.") }
	for _, window := range []string{"renamed, segments not deleted", "rotated, checkpoint still .tmp", "checkpoint unreadable"} {
		t.Run(window, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Shards: 4, MerkleBuckets: 64}
			wopts := WALOptions{Dir: dir, Fsync: FsyncNever, SnapshotBytes: 1 << 30}
			s, err := OpenSharded(opts, wopts)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			set := func(from, to int, tag string) {
				for i := from; i < to; i++ {
					s.Set(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("%s-%d", tag, i)))
				}
			}
			// An older checkpoint + a sealed segment on top of it, so the
			// .tmp window has something to fall back to.
			set(0, 200, "first")
			if err := s.Snapshot(); err != nil {
				t.Fatalf("first checkpoint: %v", err)
			}
			set(100, 300, "second")
			s.Delete("key-7")
			if err := s.Sync(); err != nil {
				t.Fatalf("sync: %v", err)
			}
			covered := copyFiles(t, dir, isSeg)
			olderSnaps := copyFiles(t, dir, func(n string) bool { return strings.HasPrefix(n, "snap.") })
			if err := s.Snapshot(); err != nil {
				t.Fatalf("second checkpoint: %v", err)
			}
			set(250, 350, "tail")
			s.Purge("key-3", math.MaxUint64)
			want := rawState(s)
			if err := s.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			// Rewind the directory into the crash window.
			for name, b := range covered {
				if err := os.WriteFile(dir+"/"+name, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for name, b := range olderSnaps {
				if err := os.WriteFile(dir+"/"+name, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			newest, _ := snapFiles(t, dir)
			sort.Strings(newest)
			path := dir + "/" + newest[len(newest)-1]
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			switch window {
			case "rotated, checkpoint still .tmp":
				if err := os.WriteFile(path+".tmp", b[:len(b)/2], 0o644); err != nil {
					t.Fatal(err)
				}
				os.Remove(path)
			case "checkpoint unreadable":
				b[len(b)/2] ^= 0xff
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			diffStates(t, "reference replay of the crash window", refReplay(t, dir), want)
			r, err := OpenSharded(opts, wopts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer r.Close()
			diffStates(t, "recovery from the crash window", rawState(r), want)
			if tmps := copyFiles(t, dir, func(n string) bool { return strings.HasSuffix(n, ".tmp") }); len(tmps) != 0 {
				t.Fatalf("recovery left interrupted checkpoints behind: %d", len(tmps))
			}
			if window == "renamed, segments not deleted" {
				for name := range covered {
					if _, err := os.Stat(dir + "/" + name); err == nil {
						t.Fatalf("recovery kept %s, which the checkpoint covers", name)
					}
				}
			}
		})
	}
}

// TestCrashDeferredRun extends the crash suite to the run of writes a
// batch frame makes. Under FsyncAlways, writes through a Deferred view
// return before their fsync and Wait is the ack: a run costs one group
// commit however long it is, everything written before a Wait that
// returned nil survives a crash that tears away every unsynced byte,
// and a run that was never waited for promises nothing but still
// recovers to exactly what reached the disk.
func TestCrashDeferredRun(t *testing.T) {
	dir := t.TempDir()
	tfs := newTrackFS()
	opts := Options{Shards: 4, MerkleBuckets: 64}
	wopts := WALOptions{Dir: dir, Fsync: FsyncAlways, OpenFile: tfs.open}
	s, err := OpenSharded(opts, wopts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	fsyncs := counter("store.wal.fsyncs")
	run := s.Deferred()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("acked-%03d", i)
		switch i % 3 {
		case 0:
			run.Set(k, []byte("set"))
		case 1:
			run.Merge(k, Entry{Value: []byte("merged"), Version: s.Clock().Next()})
		default:
			run.Delete(k)
		}
	}
	if d := counter("store.wal.fsyncs") - fsyncs; d != 0 {
		t.Fatalf("%d fsyncs before the run's Wait, want 0", d)
	}
	if err := run.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if d := counter("store.wal.fsyncs") - fsyncs; d != 1 {
		t.Fatalf("a run of %d writes cost %d fsyncs, want 1", n, d)
	}
	acked := rawState(s)

	unacked := s.Deferred()
	for i := 0; i < n; i++ {
		unacked.Set(fmt.Sprintf("unacked-%03d", i), []byte("maybe"))
	}

	// Crash, losing every byte no fsync covered.
	s.wal.close(false)
	for _, tf := range tfs.tracked() {
		synced, _ := tf.floors()
		if err := os.Truncate(tf.path, synced); err != nil {
			t.Fatalf("truncate %s: %v", tf.path, err)
		}
	}
	want := refReplay(t, dir)
	tfs.reset()
	r, err := OpenSharded(opts, wopts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	got := rawState(r)
	diffStates(t, "deferred run", got, want)
	for k, e := range acked {
		if g, ok := got[k]; !ok || !reflect.DeepEqual(g, e) {
			t.Fatalf("acked write lost: key %q got %+v want %+v", k, g, e)
		}
	}
}
