package store

import (
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
// listing; only the record codec is shared). It applies the records of
// every segment oldest-first, last-record-wins, stopping at the first
// torn or corrupt record (and ignoring later segments, which recovery
// discards for the same reason).
func refReplay(t *testing.T, dir string) map[string]Entry {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ref readdir: %v", err)
	}
	var segs []int
	for _, de := range des {
		var g int
		var rest string
		if n, _ := fmt.Sscanf(de.Name(), "wal.%d%s", &g, &rest); n == 1 {
			segs = append(segs, g)
		}
	}
	sort.Ints(segs)

	m := map[string]Entry{}
	for _, g := range segs {
		b, err := os.ReadFile(fmt.Sprintf("%s/wal.%d", dir, g))
		if err != nil {
			t.Fatalf("ref read gen %d: %v", g, err)
		}
		if len(b) < magicLen+4 || string(b[:magicLen]) != walMagic {
			break
		}
		for b = b[magicLen+4:]; len(b) > 0; {
			r, used, err := decodeFrame(b)
			if err != nil {
				return m
			}
			if r.purge() {
				delete(m, r.key())
			} else {
				m[r.key()] = r.entry()
			}
			b = b[used:]
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
	// Sync barrier below, rotations and cleaning passes are the only
	// durability points, so the acked floor is exactly what the test
	// tracked. The floor is small enough that passes land mid-history.
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
		// Cleaning is only exercised if the size trigger still fires at
		// this floor every round.
		if counter("store.wal.snapshots") == snapsBefore {
			t.Fatalf("round %d: no cleaning pass in %d ops (seed %d)", round, nops, seed)
		}
		for _, tf := range tfs.tracked() {
			st, err := os.Stat(tf.path)
			if err != nil {
				continue // cleaned away: its live records were copied ahead
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

// sealHead rotates s's open segment by hand, as the cleaner loop does once
// the segment is due.
func sealHead(t *testing.T, s *Sharded) {
	t.Helper()
	w := s.wal
	w.ckMu.Lock()
	defer w.ckMu.Unlock()
	entries, _ := s.census()
	if !w.rotate(entries) {
		t.Fatalf("rotate: %v", s.Err())
	}
}

// cleanOldest runs one cleaning pass by hand, as the cleaner loop does
// once the log is due.
func cleanOldest(t *testing.T, s *Sharded) {
	t.Helper()
	w := s.wal
	w.ckMu.Lock()
	defer w.ckMu.Unlock()
	if !w.clean() {
		t.Fatalf("clean: %v", s.Err())
	}
}

// TestCrashCheckpointWindows rebuilds on disk each state a crash inside
// a cleaning pass can leave, and one a crash after it can:
//
//   - the live records of the oldest segment copied to the head of the
//     log but not yet fsynced, so that the head ends anywhere among the
//     copies, mid-frame included;
//   - the copies fsynced, the segment not yet deleted;
//   - the segment deleted, the directory not yet fsynced: the unlink
//     either reached the disk (the segment is gone) or did not (the
//     window before);
//   - a torn head after the pass, writes on top of the copies cut off
//     mid-frame.
//
// Each must recover exactly the independent reference replay of what is
// on disk, which, up to the tear, is the state the engine held.
func TestCrashCheckpointWindows(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 4, MerkleBuckets: 64}
	// A floor far above this history: only the test seals and cleans.
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
	sync := func() {
		if err := s.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
	}
	isSeg := func(name string) bool { return strings.HasPrefix(name, "wal.") }
	// Three segments: the oldest holds key-0..199, half of them since
	// rewritten, key-7 deleted and key-3 purged in the next one.
	set(0, 200, "first")
	sealHead(t, s)
	set(100, 300, "second")
	s.Delete("key-7")
	s.Purge("key-3", math.MaxUint64)
	sealHead(t, s)
	set(250, 350, "tail")
	sync()
	before := copyFiles(t, dir, isSeg)
	want := rawState(s)
	head := s.wal.path[len(dir)+1:]
	oldest := s.wal.sealed[0]

	appends, copied := counter("store.wal.appends"), counter("store.wal.snapshot_bytes")
	cleanOldest(t, s)
	after := copyFiles(t, dir, isSeg)
	if _, ok := after[fmt.Sprintf("wal.%d", oldest.gen)]; ok || len(after) != len(before)-1 {
		t.Fatalf("the pass left %d of %d segments, the oldest among them", len(after), len(before))
	}
	// The oldest segment's live records are key-0..99 less key-3 and
	// key-7, each copied once, as the resident record.
	if n := counter("store.wal.appends") - appends; n != 98 {
		t.Fatalf("the pass copied %d records, want 98", n)
	}
	if n := counter("store.wal.snapshot_bytes") - copied; n != int64(len(after[head])-len(before[head])) {
		t.Fatalf("the pass counted %d copied bytes, the head grew %d", n, len(after[head])-len(before[head]))
	}
	diffStates(t, "the state the pass left", rawState(s), want)

	set(300, 400, "later")
	s.Delete("key-150")
	sync()
	later := copyFiles(t, dir, isSeg)[head]
	wantLater := rawState(s)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	cut := func(b []byte, from int) []byte { return b[:from+rng.Intn(len(b)-from)] }
	for _, c := range []struct {
		window string
		oldest bool   // the cleaned segment is still on disk
		head   []byte // the open segment's bytes
		torn   bool   // writes after the pass were cut off
	}{
		{"copies appended, not fsynced", true, cut(after[head], len(before[head])), false},
		{"copies fsynced, segment not deleted", true, after[head], false},
		{"segment deleted, directory not fsynced", false, after[head], false},
		{"torn head after a pass", false, cut(later, len(after[head])), true},
	} {
		t.Run(c.window, func(t *testing.T) {
			for name := range copyFiles(t, dir, isSeg) {
				os.Remove(dir + "/" + name)
			}
			files := map[string][]byte{head: c.head}
			for name, b := range before {
				if name != head && (c.oldest || name != fmt.Sprintf("wal.%d", oldest.gen)) {
					files[name] = b
				}
			}
			for name, b := range files {
				if err := os.WriteFile(dir+"/"+name, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			ref := refReplay(t, dir)
			if !c.torn {
				diffStates(t, "reference replay of the crash window", ref, want)
			}
			// Up to the tear, every key the later writes left alone is as
			// the pass left it.
			for k, e := range want {
				if g := ref[k]; reflect.DeepEqual(wantLater[k], e) && !reflect.DeepEqual(g, e) {
					t.Fatalf("key %q: reference replay %+v, want %+v", k, g, e)
				}
			}
			r, err := OpenSharded(opts, wopts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			diffStates(t, "recovery from the crash window", rawState(r), ref)
			if err := r.Close(); err != nil {
				t.Fatal(err)
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
