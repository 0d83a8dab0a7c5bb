package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"pdcedu/internal/obs"
)

// everyBucket marks every Merkle bucket of e: RangeBuckets over it is
// the engine's whole listing.
func everyBucket(e *Sharded) []bool {
	want := make([]bool, e.Buckets())
	for b := range want {
		want[b] = true
	}
	return want
}

// rawState snapshots an engine's raw entry space (tombstones included)
// into a plain map, each key and value copied out of the record it
// aliases.
func rawState(e *Sharded) map[string]Entry {
	m := map[string]Entry{}
	e.RangeBuckets(everyBucket(e), func(k string, en Entry) bool {
		en.Value = bytes.Clone(en.Value)
		m[strings.Clone(k)] = en
		return true
	})
	return m
}

// diffStates fails the test with a readable per-key diff when two raw
// states differ.
func diffStates(t *testing.T, label string, got, want map[string]Entry) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	shown := 0
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: key %q missing (want %+v)", label, k, w)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: key %q got %+v want %+v", label, k, g, w)
		} else {
			continue
		}
		if shown++; shown >= 8 {
			break
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: key %q unexpected (got %+v)", label, k, g)
			if shown++; shown >= 8 {
				break
			}
		}
	}
	t.Fatalf("%s: states differ (got %d keys, want %d)", label, len(got), len(want))
}

// codecCases are the record shapes the codec test round-trips and the
// fuzz targets start from.
var codecCases = []struct {
	key   string
	e     Entry
	purge bool
}{
	{"k", Entry{Value: []byte("v"), Version: 1}, false},
	{"max", Entry{Value: []byte("newest"), Version: math.MaxUint64}, false},
	{"", Entry{Value: nil, Version: 42}, false},
	{"empty-value", Entry{Version: 7}, false},
	{"tomb", Entry{Version: 9, Tombstone: true}, false},
	{"purged", Entry{}, true},
	{string(bytes.Repeat([]byte("K"), 300)), Entry{Value: bytes.Repeat([]byte("V"), 4096), Version: 1 << 60}, false},
}

// TestWALRecordCodec round-trips every codec case through a frame. The
// frame has no length of its own, so the prefix and flip loops are what
// show the CRC still covers the record header's key and value lengths.
func TestWALRecordCodec(t *testing.T) {
	cases := codecCases
	for i, c := range cases {
		frame := appendFrame(nil, c.key, c.e, c.purge)
		r, n, err := decodeFrame(frame)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if n != len(frame) {
			t.Fatalf("case %d: consumed %d of %d bytes", i, n, len(frame))
		}
		if key, e, purge := r.key(), r.entry(), r.purge(); key != c.key || purge != c.purge || !reflect.DeepEqual(e, c.e) {
			t.Fatalf("case %d: roundtrip got (%q, %+v, %v) want (%q, %+v, %v)",
				i, key, e, purge, c.key, c.e, c.purge)
		}
		// Every strict prefix must read as torn or corrupt, never as a
		// (different) valid record.
		for cut := 0; cut < len(frame); cut++ {
			if _, _, err := decodeFrame(frame[:cut]); err == nil {
				t.Fatalf("case %d: prefix of %d bytes decoded successfully", i, cut)
			}
		}
		// Any single corrupted byte must be detected.
		for off := 0; off < len(frame); off++ {
			bad := append([]byte(nil), frame...)
			bad[off] ^= 0xff
			if _, _, err := decodeFrame(bad); err == nil {
				t.Fatalf("case %d: flip at byte %d went undetected", i, off)
			}
		}
	}
	// Records must parse back-to-back the way a segment stores them.
	var seg []byte
	for _, c := range cases {
		seg = appendFrame(seg, c.key, c.e, c.purge)
	}
	off, count := 0, 0
	for off < len(seg) {
		_, n, err := decodeFrame(seg[off:])
		if err != nil {
			t.Fatalf("sequential decode at %d: %v", off, err)
		}
		off += n
		count++
	}
	if count != len(cases) {
		t.Fatalf("sequential decode found %d records, want %d", count, len(cases))
	}
}

// TestWALBytesPerRecord pins what a write costs the log, read where the
// benchmark reads it (store.wal.append_bytes): a frame is the CRC, the
// version and the table's own record, so a 9-byte key and a 128-byte
// value log 4 + 8 + 7 + 137 = 156 bytes, an expiry adds its 8, a key
// past 64 KiB widens klen by 2, and a delete or a purge is the header
// and the key. The cleaner re-appends each live record the same way.
func TestWALBytesPerRecord(t *testing.T) {
	ft := newFakeTime()
	opts := Options{Shards: 4, MerkleBuckets: 64, Now: ft.now, TombstoneGC: time.Minute}
	s, err := OpenSharded(opts, WALOptions{Dir: t.TempDir(), Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	// grew runs write and returns how far it moved counter name, the
	// log buffer flushed on both sides of it.
	grew := func(name string, write func()) int64 {
		t.Helper()
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		before := counter(name)
		write()
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		return counter(name) - before
	}
	key, val := "k00000000", make([]byte, 128)
	long := strings.Repeat("K", math.MaxUint16+1)
	for _, c := range []struct {
		name  string
		write func()
		want  int64
	}{
		{"Set", func() { s.Set(key, val) }, 156},
		{"Delete", func() { s.Delete(key) }, 28},
		{"sweep purge", func() { ft.advance(2 * time.Minute); s.Sweep(0) }, 28},
		{"Set of a 64 KiB + 1 key", func() { s.Set(long, val) }, 156 + int64(len(long)-len(key)) + 2},
	} {
		if got := grew("store.wal.append_bytes", c.write); got != c.want {
			t.Errorf("%s logged %d bytes, want %d", c.name, got, c.want)
		}
	}
	s.Purge(long, math.MaxUint64)
	const n = 100
	for i := 0; i < n; i++ {
		s.Set(fmt.Sprintf("k%08d", i), val)
	}
	if got, want := grew("store.wal.snapshot_bytes", func() { s.Snapshot() }), int64(n*156); got != want {
		t.Errorf("a Snapshot of %d entries copied %d bytes, want %d", n, got, want)
	}
}

// TestWALBasicDurability runs a deterministic op mix through a
// persistent engine, closes it cleanly, reopens the directory, and
// expects the byte-identical raw state back — plus a clock that kept
// ordering across the restart.
func TestWALBasicDurability(t *testing.T) {
	ft := newFakeTime()
	dir := t.TempDir()
	opts := Options{Shards: 4, MerkleBuckets: 64, Now: ft.now, TombstoneGC: time.Minute}
	s, err := OpenSharded(opts, WALOptions{Dir: dir, Fsync: FsyncInterval})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 200; i++ {
		s.Set(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i)))
	}
	for i := 0; i < 50; i++ {
		s.Delete(fmt.Sprintf("key-%d", i))
	}
	s.Merge("merged", Entry{Value: []byte("riding-in"), Version: s.Clock().Next()})
	s.Purge("key-60", math.MaxUint64)
	var maxVer uint64
	want := rawState(s)
	for _, e := range want {
		if e.Version > maxVer {
			maxVer = e.Version
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r, err := OpenSharded(opts, WALOptions{Dir: dir, Fsync: FsyncInterval})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	diffStates(t, "reopen", rawState(r), want)
	if got, wantLen := r.Len(), s.Len(); got != wantLen {
		t.Fatalf("reopened Len = %d, want %d", got, wantLen)
	}
	rec := r.Recovery()
	if rec.WALRecords == 0 || rec.Segments == 0 {
		t.Fatalf("recovery stats empty: %+v", rec)
	}
	if rec.TornBytes != 0 {
		t.Fatalf("clean close left %d torn bytes", rec.TornBytes)
	}
	if v := r.Set("post-restart", []byte("x")); v <= maxVer {
		t.Fatalf("post-restart version %d not above recovered max %d", v, maxVer)
	}
}

// TestWALGroupCommitConcurrent hammers a FsyncAlways engine from many
// goroutines — every returned write must be on disk after an abrupt
// (no final flush) close.
func TestWALGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(Options{Shards: 2, MerkleBuckets: 32},
		WALOptions{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const writers, per = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Set(fmt.Sprintf("w%d-%d", g, i), []byte(fmt.Sprintf("v%d-%d", g, i)))
			}
		}(g)
	}
	wg.Wait()
	if err := s.Err(); err != nil {
		t.Fatalf("engine poisoned: %v", err)
	}
	want := rawState(s)
	// Abrupt close: no final fsync. Group commit already made every
	// acked Set durable, so nothing may be missing on reopen.
	s.wal.close(false)

	r, err := OpenSharded(Options{Shards: 2, MerkleBuckets: 32},
		WALOptions{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	diffStates(t, "group commit", rawState(r), want)
	if r.Len() != writers*per {
		t.Fatalf("reopened Len = %d, want %d", r.Len(), writers*per)
	}
}

// TestInPlaceRewritesAreDurable: a record rewritten in place is logged
// like any other write and copied by the cleaner as it stands, so a
// crash after rewrites on both sides of a Snapshot reopens to the state
// before it —
// the in-place rewrites and the new records of a changed length alike,
// with no torn or corrupt byte in the log.
func TestInPlaceRewritesAreDurable(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 4, MerkleBuckets: 64}
	wo := WALOptions{Dir: dir, Fsync: FsyncAlways}
	s, err := OpenSharded(opts, wo)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const n = 200
	key := func(i int) string { return fmt.Sprintf("key-%03d", i) }
	value := func(round, i int) []byte { return []byte(fmt.Sprintf("r%02d-%05d", round, i)) }
	for i := 0; i < n; i++ {
		s.Set(key(i), value(0, i))
	}
	var held [][]byte
	for i := 0; i < n; i += 2 {
		e, _ := s.Get(key(i))
		held = append(held, e.Value)
	}
	rewrites := counter("store.table.rewrites")
	overwrite := func(round int) {
		for i := 0; i < n; i++ {
			switch {
			case i%10 == 9: // an empty value and its tombstone, one length
				s.Set(key(i), nil)
				s.Delete(key(i))
			case i%2 == 0:
				s.Set(key(i), value(round, i))
			default:
				s.Merge(key(i), Entry{Value: value(round, i), Version: s.Clock().Next()})
			}
		}
	}
	overwrite(1)
	overwrite(2)
	if err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	overwrite(3)
	overwrite(4)
	if got := counter("store.table.rewrites") - rewrites; got < 3*n {
		t.Fatalf("%d writes rewrote their record in place, want at least %d", got, 3*n)
	}
	want := rawState(s)
	torn := counter("store.wal.torn_bytes")
	s.wal.close(false) // a crash: no final flush, every write already acked durable

	r, err := OpenSharded(opts, wo)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	diffStates(t, "reopen after in-place rewrites", rawState(r), want)
	if rs := r.Recovery(); rs.TornBytes != 0 || counter("store.wal.torn_bytes") != torn {
		t.Fatalf("recovery dropped %d torn or corrupt log bytes, want none", rs.TornBytes)
	}
	if rs := r.Recovery(); rs.WALRecords <= n {
		t.Fatalf("replayed %d log records, want the %d of the image and some", rs.WALRecords, n)
	}
	for j, v := range held {
		if i := 2 * j; string(v) != string(value(0, i)) {
			t.Fatalf("value of %s read before the rewrites is now %q", key(i), v)
		}
	}
}

// faultFS is the failure-injecting WALFile seam: knobs flip the next
// writes/fsyncs into short writes, ENOSPC, or fsync errors.
type faultFS struct {
	mu       sync.Mutex
	writeErr error
	short    bool
	syncErr  error
}

func (fs *faultFS) set(writeErr error, short bool, syncErr error) {
	fs.mu.Lock()
	fs.writeErr, fs.short, fs.syncErr = writeErr, short, syncErr
	fs.mu.Unlock()
}

func (fs *faultFS) open(path string) (WALFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, f: f}, nil
}

type faultFile struct {
	fs *faultFS
	f  *os.File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	writeErr, short := ff.fs.writeErr, ff.fs.short
	ff.fs.mu.Unlock()
	if writeErr != nil {
		return 0, writeErr
	}
	if short {
		n, _ := ff.f.Write(p[:len(p)/2])
		return n, nil
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	syncErr := ff.fs.syncErr
	ff.fs.mu.Unlock()
	if syncErr != nil {
		return syncErr
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// openFault opens a persistent engine over a fresh faultFS and writes
// a healthy prelude of n keys.
func openFault(t *testing.T, dir string, policy FsyncPolicy, n int) (*Sharded, *faultFS, map[string]Entry) {
	t.Helper()
	fs := &faultFS{}
	s, err := OpenSharded(Options{Shards: 1, MerkleBuckets: 16},
		WALOptions{Dir: dir, Fsync: policy, OpenFile: fs.open})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < n; i++ {
		s.Set(fmt.Sprintf("pre-%d", i), []byte(fmt.Sprintf("val-%d", i)))
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("sync prelude: %v", err)
	}
	return s, fs, rawState(s)
}

// reopenClean reopens dir with the default (healthy) file opener.
func reopenClean(t *testing.T, dir string) *Sharded {
	t.Helper()
	r, err := OpenSharded(Options{Shards: 1, MerkleBuckets: 16}, WALOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after fault: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestWALFaultInjection(t *testing.T) {
	t.Run("short write", func(t *testing.T) {
		dir := t.TempDir()
		s, fs, pre := openFault(t, dir, FsyncInterval, 10)
		fs.set(nil, true, nil)
		s.Set("lost", []byte("half-written"))
		// The record sits in the log buffer until a flush point; the
		// manual barrier forces one and must surface the short write.
		err := s.Sync()
		var we *WALError
		if !errors.As(err, &we) || we.Op != "write" || !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("want sticky WALError{Op: write, short write}, got %v", err)
		}
		// Sticky: the next write must not pretend the log is healthy.
		s.Set("after", []byte("x"))
		if s.Err() == nil {
			t.Fatal("error did not stick")
		}
		if cerr := s.Close(); cerr == nil {
			t.Fatal("Close on a poisoned engine returned nil")
		}
		// The torn record is dropped on reopen: exactly the acked
		// prelude comes back, the unacked writes do not.
		r := reopenClean(t, dir)
		diffStates(t, "short write reopen", rawState(r), pre)
		if r.Recovery().TornBytes == 0 {
			t.Fatal("expected torn bytes from the half-written record")
		}
	})

	t.Run("enospc", func(t *testing.T) {
		dir := t.TempDir()
		s, fs, pre := openFault(t, dir, FsyncInterval, 10)
		fs.set(syscall.ENOSPC, false, nil)
		s.Set("lost", []byte("no space"))
		err := s.Sync()
		var we *WALError
		if !errors.As(err, &we) || !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("want WALError wrapping ENOSPC, got %v", err)
		}
		s.wal.close(false)
		r := reopenClean(t, dir)
		diffStates(t, "enospc reopen", rawState(r), pre)
	})

	t.Run("fsync error never acks", func(t *testing.T) {
		dir := t.TempDir()
		s, fs, _ := openFault(t, dir, FsyncAlways, 10)
		fs.set(nil, false, errors.New("simulated fsync failure"))
		s.Set("unacked", []byte("v"))
		err := s.Err()
		var we *WALError
		if !errors.As(err, &we) || we.Op != "sync" {
			t.Fatalf("want sticky WALError{Op: sync}, got %v", err)
		}
		// No group-commit waiter may hang on the dead log: another
		// write must return promptly (poisoned, not blocked).
		done := make(chan struct{})
		go func() {
			s.Set("also-unacked", []byte("v"))
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("write blocked forever on a poisoned log")
		}
		s.wal.close(false)
		// Reopen must be consistent: every recovered key carries its
		// full value (the record frame is all-or-nothing).
		r := reopenClean(t, dir)
		for k, e := range rawState(r) {
			if e.Tombstone || len(e.Value) == 0 {
				t.Fatalf("half-applied record for %q: %+v", k, e)
			}
		}
	})

	t.Run("rotation failure poisons", func(t *testing.T) {
		dir := t.TempDir()
		opener := func(path string) (WALFile, error) {
			if !strings.HasSuffix(path, "wal.1") {
				return nil, syscall.ENOSPC
			}
			return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		}
		s, err := OpenSharded(Options{Shards: 1, MerkleBuckets: 16}, WALOptions{Dir: dir, OpenFile: opener})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		s.Set("k", []byte("v"))
		pre := rawState(s)
		err = s.Snapshot()
		var we *WALError
		if !errors.As(err, &we) || we.Op != "rotate" || !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("want sticky WALError{Op: rotate, ENOSPC}, got %v", err)
		}
		if s.Err() == nil || s.Close() == nil {
			t.Fatal("rotation failure did not stick")
		}
		// The log was never swapped, so the directory still reopens;
		// whether the one unsynced record made it depends on the tick.
		r := reopenClean(t, dir)
		if got := rawState(r); len(got) != 0 {
			diffStates(t, "rotation failure reopen", got, pre)
		}
	})

	t.Run("group commit failure is not half applied", func(t *testing.T) {
		dir := t.TempDir()
		s, fs, _ := openFault(t, dir, FsyncAlways, 0)
		fs.set(nil, false, errors.New("dead disk"))
		var wg sync.WaitGroup
		written := map[string]string{}
		var mu sync.Mutex
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					k, v := fmt.Sprintf("g%d-%d", g, i), fmt.Sprintf("v%d-%d", g, i)
					s.Set(k, []byte(v))
					mu.Lock()
					written[k] = v
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait()
		if s.Err() == nil {
			t.Fatal("engine not poisoned by failed group commit")
		}
		s.wal.close(false)
		r := reopenClean(t, dir)
		for k, e := range rawState(r) {
			want, ok := written[k]
			if !ok || string(e.Value) != want {
				t.Fatalf("recovered %q = %q, want %q (exactly the written value or nothing)", k, e.Value, want)
			}
		}
	})
}

// counter reads one process-global counter; tests take deltas because
// the registry is shared by every engine in the package's tests.
func counter(name string) int64 {
	for _, m := range obs.Default().Snapshot().Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// histSum reads the sum of one process-global histogram.
func histSum(name string) int64 {
	for _, m := range obs.Default().Snapshot().Metrics {
		if m.Name == name && m.Hist != nil {
			return int64(m.Hist.Sum)
		}
	}
	return 0
}

// BenchmarkWALSet is the CI twin of the benchmark's
// store.wal_bytes_per_set: 9 + 128-byte Sets over 100k resident keys
// through a persistent engine, reporting the log bytes each one wrote
// (log-B/op, from store.wal.append_bytes). scripts/allocgate.sh holds
// it to 156 and to no allocation — each record is rewritten in place —
// so a field added to the frame, or a copy
// added to the write path, fails there rather than in a later benchmark
// run.
func BenchmarkWALSet(b *testing.B) {
	s, err := OpenSharded(Options{}, WALOptions{Dir: b.TempDir(), Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	keys := make([]string, 100_000)
	val := make([]byte, 128)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%08d", i)
		s.Set(keys[i], val)
	}
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
	before := counter("store.wal.append_bytes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Set(keys[i%len(keys)], val)
	}
	b.StopTimer()
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(counter("store.wal.append_bytes")-before)/float64(b.N), "log-B/op")
}

// TestWALOneLogOneFsync pins the layout: whatever the shard count, a
// directory holds one open segment, and one Sync barrier after writes
// on every shard is exactly one fsync.
func TestWALOneLogOneFsync(t *testing.T) {
	for _, shards := range []int{1, 8, 128} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			// FsyncNever: the barrier below is the only fsync there is.
			s, err := OpenSharded(Options{Shards: shards, MerkleBuckets: 128},
				WALOptions{Dir: dir, Fsync: FsyncNever})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer s.Close()
			touched := map[*shard]bool{}
			for i := 0; len(touched) < shards; i++ {
				k := fmt.Sprintf("key-%d", i)
				s.Set(k, []byte("v"))
				touched[s.shardFor(k)] = true
			}
			before := counter("store.wal.fsyncs")
			if err := s.Sync(); err != nil {
				t.Fatalf("sync: %v", err)
			}
			if d := counter("store.wal.fsyncs") - before; d != 1 {
				t.Fatalf("one Sync over %d dirty shards issued %d fsyncs, want 1", shards, d)
			}
			if err := s.Sync(); err != nil {
				t.Fatalf("second sync: %v", err)
			}
			if d := counter("store.wal.fsyncs") - before; d != 1 {
				t.Fatalf("Sync of a clean log issued an fsync (%d total)", d)
			}
			des, _ := os.ReadDir(dir)
			var names []string
			for _, de := range des {
				names = append(names, de.Name())
			}
			sort.Strings(names)
			if want := []string{"WALMETA", "wal.1"}; !reflect.DeepEqual(names, want) {
				t.Fatalf("data-dir holds %v, want %v", names, want)
			}
		})
	}
}

// slowSyncFS is the WALFile seam with an fsync that takes long enough
// for every concurrent writer to have appended behind the leader.
type slowSyncFS struct{ syncs atomic.Int64 }

type slowSyncFile struct {
	*os.File
	fs *slowSyncFS
}

func (fs *slowSyncFS) open(path string) (WALFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &slowSyncFile{File: f, fs: fs}, nil
}

func (f *slowSyncFile) Sync() error {
	f.fs.syncs.Add(1)
	time.Sleep(500 * time.Microsecond)
	return f.File.Sync()
}

// TestWALGroupCommitAcrossShards: FsyncAlways writers that never touch
// the same shard still share fsyncs — the commit group is the node,
// not the shard.
func TestWALGroupCommitAcrossShards(t *testing.T) {
	const writers, per = 16, 40
	fs := &slowSyncFS{}
	dir := t.TempDir()
	opts := Options{Shards: writers, MerkleBuckets: 64}
	s, err := OpenSharded(opts, WALOptions{Dir: dir, Fsync: FsyncAlways, OpenFile: fs.open})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// One key set per shard, so writer g only ever locks shard g.
	keys := make([][]string, writers)
	for i, filled := 0, 0; filled < writers; i++ {
		k := fmt.Sprintf("key-%d", i)
		si := int(keyHash32(k) & s.mask)
		if len(keys[si]) < per {
			if keys[si] = append(keys[si], k); len(keys[si]) == per {
				filled++
			}
		}
	}
	appends0, batched0 := counter("store.wal.appends"), histSum("store.wal.flush_records")
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(ks []string) {
			defer wg.Done()
			for _, k := range ks {
				s.Set(k, []byte(k))
			}
		}(keys[g])
	}
	wg.Wait()
	if err := s.Err(); err != nil {
		t.Fatalf("engine poisoned: %v", err)
	}
	if n := fs.syncs.Load(); n > writers*per/4 {
		t.Fatalf("%d writes on %d disjoint shards cost %d fsyncs: writers are not sharing group commits", writers*per, writers, n)
	}
	// Every record appended rode exactly one write-out, and the batch
	// histogram saw each one.
	if appends, batched := counter("store.wal.appends")-appends0, histSum("store.wal.flush_records")-batched0; batched != appends {
		t.Fatalf("store.wal.flush_records sums to %d over %d appends", batched, appends)
	}
	// Every acked write is durable without a final flush.
	want := rawState(s)
	s.wal.close(false)
	r, err := OpenSharded(opts, WALOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	diffStates(t, "cross-shard group commit", rawState(r), want)
}
