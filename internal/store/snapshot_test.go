package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// segFiles lists the directory's log segments and their bytes.
func segFiles(t *testing.T, dir string) (segs []string, size int64) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	for _, de := range des {
		if strings.HasPrefix(de.Name(), "wal.") {
			info, err := de.Info()
			if err != nil {
				t.Fatal(err)
			}
			segs = append(segs, de.Name())
			size += info.Size()
		}
	}
	return segs, size
}

// TestWALSnapshotRotation drives both cleaning triggers — the manual
// Snapshot and the log-size threshold. Snapshot leaves the log as one
// segment holding the live image, which a reopen replays with the tail
// on top; the size trigger cleans in the background, the oldest segment
// first, with no manual call.
func TestWALSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 2, MerkleBuckets: 32}
	s, err := OpenSharded(opts, WALOptions{Dir: dir, Fsync: FsyncInterval, SnapshotBytes: 1 << 30})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 300; i++ {
		s.Set(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i)))
	}
	for i := 0; i < 300; i += 3 {
		s.Set(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i)))
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if segs, _ := segFiles(t, dir); len(segs) != 1 {
		t.Fatalf("Snapshot left segments %v, want the one holding the image", segs)
	}
	// Post-snapshot writes land in the tail and must replay on top.
	for i := 0; i < 50; i++ {
		s.Set(fmt.Sprintf("key-%d", i), []byte("updated"))
	}
	s.Delete("key-299")
	want := rawState(s)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r, err := OpenSharded(opts, WALOptions{Dir: dir, Fsync: FsyncInterval, SnapshotBytes: 1 << 30})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	diffStates(t, "snapshot+tail reopen", rawState(r), want)
	if rec := r.Recovery(); rec.WALRecords != 300+51 {
		t.Fatalf("replay saw %d records, want 351 (the 300-key image, 50 updates, 1 delete)", rec.WALRecords)
	}
	r.Close()

	// Size-triggered cleaning: a small threshold must clean in the
	// background without any manual call, the oldest segment first.
	dir2 := t.TempDir()
	s2, err := OpenSharded(opts, WALOptions{Dir: dir2, Fsync: FsyncInterval, SnapshotBytes: 2 << 10})
	if err != nil {
		t.Fatalf("open small-threshold: %v", err)
	}
	defer s2.Close()
	passes := counter("store.wal.snapshots")
	for i := 0; i < 2000; i++ {
		s2.Set(fmt.Sprintf("key-%d", i%200), []byte(fmt.Sprintf("value-%d", i)))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := os.Stat(dir2 + "/wal.1")
		if os.IsNotExist(err) && counter("store.wal.snapshots") > passes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the size threshold never cleaned the oldest segment")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s2.Err(); err != nil {
		t.Fatalf("engine poisoned by background cleaning: %v", err)
	}
}

// TestRecoveryNoResurrectionAfterGC pins the tombstone-GC / recovery
// interaction: a tombstone the sweeper collected is logged as a purge,
// so a reopen replays set → tombstone → purge and ends with the key
// fully absent — the WAL cannot resurrect either the value or the
// tombstone.
func TestRecoveryNoResurrectionAfterGC(t *testing.T) {
	ft := newFakeTime()
	dir := t.TempDir()
	opts := Options{Shards: 2, MerkleBuckets: 32, Now: ft.now, TombstoneGC: time.Minute}
	wopts := WALOptions{Dir: dir, Fsync: FsyncInterval}
	s, err := OpenSharded(opts, wopts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s.Set("doomed", []byte("v"))
	s.Set("kept", []byte("v"))
	s.Delete("doomed")
	ft.advance(2 * time.Minute)
	s.Sweep(0)
	if _, _, ok := s.AppendLoad(nil, "doomed"); ok {
		t.Fatal("sweep did not purge the aged tombstone")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r, err := OpenSharded(opts, wopts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if _, e, ok := r.AppendLoad(nil, "doomed"); ok {
		t.Fatalf("reopen resurrected purged key as %+v", e)
	}
	if _, ok := r.Get("kept"); !ok {
		t.Fatal("reopen lost an unrelated live key")
	}
	if r.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", r.Len())
	}
}

// TestRecoveryManifestGeometry pins the manifest: a directory's shard
// and Merkle-bucket geometry is decided at creation and survives a
// reopen that asks for something else — otherwise keys would scatter
// across the wrong shard files and digests would stop comparing.
func TestRecoveryManifestGeometry(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(Options{Shards: 8, MerkleBuckets: 128}, WALOptions{Dir: dir})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 100; i++ {
		s.Set(fmt.Sprintf("key-%d", i), []byte("v"))
	}
	want := rawState(s)
	root, ok := s.Digest().Node(1)
	if !ok {
		t.Fatal("digest has no root")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r, err := OpenSharded(Options{Shards: 2, MerkleBuckets: 16}, WALOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if r.Shards() != 8 {
		t.Fatalf("manifest ignored: reopened with %d shards, want 8", r.Shards())
	}
	if got := r.Digest().Buckets(); got != 128 {
		t.Fatalf("manifest ignored: reopened with %d Merkle buckets, want 128", got)
	}
	diffStates(t, "geometry reopen", rawState(r), want)
	if got, ok := r.Digest().Node(1); !ok || got != root {
		t.Fatalf("digest root changed across reopen: %x vs %x", got, root)
	}
}

// TestRecoveryRestartsLeaveBoundedFiles: every open starts a fresh
// segment, so recovery must clear away the ones that never received a
// record — otherwise each restart leaves one more dead file behind.
func TestRecoveryRestartsLeaveBoundedFiles(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 4, MerkleBuckets: 64}
	files := func() int {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("readdir: %v", err)
		}
		return len(des)
	}
	var want map[string]Entry
	var after3 int
	for i := 0; i < 10; i++ {
		s, err := OpenSharded(opts, WALOptions{Dir: dir})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if i == 0 {
			for k := 0; k < 100; k++ {
				s.Set(fmt.Sprintf("key-%d", k), []byte("v"))
			}
			want = rawState(s)
		}
		diffStates(t, fmt.Sprintf("open %d", i), rawState(s), want)
		if err := s.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
		if i == 2 {
			after3 = files()
		}
	}
	// Manifest + the one segment with records + the last open's.
	if n := files(); n != after3 || n > 3 {
		t.Fatalf("data-dir holds %d files after 10 restarts (%d after 3), want a constant <= 3", n, after3)
	}
}

// TestRecoveryRefusesV1Layout: a directory written by an earlier layout
// — v1's per-shard files, v2's one log of length-framed entries, v3's
// records that could carry an expiry, or v4's checkpoints and segments
// without an entry count — is refused with the typed error, and nothing
// in it is touched: no new manifest, no new segment, no deleted file.
func TestRecoveryRefusesV1Layout(t *testing.T) {
	// A v2 frame of "k" = "v" at version 1: payload length and CRC,
	// then flags, version, expireAt, key length, key, value length and
	// value.
	payload := []byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 'k', 1, 0, 0, 0, 'v'}
	v2Frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	v2Frame = append(binary.LittleEndian.AppendUint32(v2Frame, crc32.Checksum(payload, crcTable)), payload...)
	// A v3 frame of "k" = "v" at version 1 expiring at 1<<56: CRC and
	// version, then flags (bit 1, the expiry), klen, vlen, expireAt, key
	// and value.
	v3Frame := binary.LittleEndian.AppendUint64(make([]byte, 4), 1)
	v3Frame = append(v3Frame, 2, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'k', 'v')
	binary.LittleEndian.PutUint32(v3Frame, crc32.Checksum(v3Frame[4:], crcTable))
	// A v4 frame is today's; its segment has no entry count, and a
	// checkpoint may sit beside it.
	v4Frame := appendFrame(nil, "k", Entry{Value: []byte("v"), Version: 1}, false)
	for _, c := range []struct {
		version int
		files   map[string][]byte
	}{
		{1, map[string][]byte{
			"WALMETA":  []byte("pdcedu-wal v1\nshards 2\nbuckets 32\n"),
			"s0.wal.1": append([]byte("PDCWAL1\n"), v2Frame...),
			"s1.wal.1": []byte("PDCWAL1\n"),
		}},
		{2, map[string][]byte{
			"WALMETA": []byte("pdcedu-wal v2\nshards 2\nbuckets 32\n"),
			"wal.1":   append([]byte("PDCWAL1\n"), v2Frame...),
		}},
		{3, map[string][]byte{
			"WALMETA": []byte("pdcedu-wal v3\nshards 2\nbuckets 32\n"),
			"wal.1":   append([]byte("PDCWAL2\n"), v3Frame...),
		}},
		{4, map[string][]byte{
			"WALMETA": []byte("pdcedu-wal v4\nshards 2\nbuckets 32\n"),
			"wal.2":   append([]byte("PDCWAL2\n"), v4Frame...),
			"snap.1":  binary.LittleEndian.AppendUint32([]byte("PDCSNP2\n"), 0),
		}},
	} {
		t.Run(fmt.Sprintf("v%d", c.version), func(t *testing.T) {
			dir := t.TempDir()
			for name, b := range c.files {
				if err := os.WriteFile(dir+"/"+name, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, err := OpenSharded(Options{}, WALOptions{Dir: dir})
			var le *LayoutError
			if !errors.As(err, &le) || le.Version != c.version || !strings.Contains(err.Error(), dir) {
				t.Fatalf("open of a v%d directory returned %v, want *LayoutError{Version: %d}", c.version, err, c.version)
			}
			if got := copyFiles(t, dir, func(string) bool { return true }); !reflect.DeepEqual(got, c.files) {
				t.Fatalf("refused open modified the directory: now holds %d files", len(got))
			}
		})
	}
}

// pacedSet is Set by a writer that waits out the cleaner work it makes
// due — a rotation, the passes behind it — so passes land exactly where
// the trigger puts them and can be counted. It returns the log and the
// threshold in force after the write.
func pacedSet(t *testing.T, s *Sharded, key string, val []byte) (log, at int64) {
	t.Helper()
	s.Set(key, val)
	w := s.wal
	deadline := time.Now().Add(10 * time.Second)
	for {
		// ckMu is held through a rotation and its passes, so under it
		// the log and the threshold are settled.
		if w.ckMu.TryLock() {
			w.mu.Lock()
			due := w.due()
			w.mu.Unlock()
			log, at = s.Backlog()
			w.ckMu.Unlock()
			if !due {
				return log, at
			}
		}
		if err := s.Err(); err != nil {
			t.Fatalf("engine poisoned waiting for the cleaner: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("cleaning due at %d bytes never ran (log %d)", at, log)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// pacingRecord is the log (and image) bytes of one record the pacing
// tests write: an 8-byte key and a 100-byte value, framed (CRC and
// version) around the table's record header.
const pacingRecord = frameHead + baseHeader + 8 + 100

func pacingKey(i int) string { return fmt.Sprintf("key-%04d", i) }

// amplification runs sets of 100-byte values at the keys pick returns,
// each paced, and returns the log bytes they cost — the cleaner's
// copies included — per byte of user frames.
func amplification(t *testing.T, s *Sharded, sets int, pick func(i int) int, each func(i int, log, at int64)) float64 {
	t.Helper()
	val := make([]byte, 100)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	appended, copied := counter("store.wal.append_bytes"), counter("store.wal.snapshot_bytes")
	for i := 0; i < sets; i++ {
		val[0] = byte(i)
		log, at := pacedSet(t, s, pacingKey(pick(i)), val)
		if each != nil {
			each(i, log, at)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	appended = counter("store.wal.append_bytes") - appended
	if copied = counter("store.wal.snapshot_bytes") - copied; appended != int64(sets)*pacingRecord+copied {
		t.Fatalf("appended %d log bytes for %d sets and %d copied bytes", appended, sets, copied)
	}
	return float64(appended) / float64(sets*pacingRecord)
}

// TestCheckpointPacedByImage is the cleaner's pacing end to end: one
// writer overwrites a fixed key set, uniformly at random, whose image is
// above half the floor, for ten images' worth of log, across clean
// restarts. Once the log has reached two images, the log writes no more
// than 1.4 bytes per byte of user frames (the cleaned segment is about
// a fifth live; a whole-image checkpoint per image of log made it 2),
// the files on disk never hold more than two images and a segment, and
// no reopen replays more than that.
func TestCheckpointPacedByImage(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	opts := Options{Shards: 4, MerkleBuckets: 64}
	wopts := WALOptions{Dir: dir, Fsync: FsyncNever, SnapshotBytes: 8 << 10}
	const keys = 400
	const image, segBytes = keys * pacingRecord, 4 * (8 << 10) / segShare

	s, err := OpenSharded(opts, wopts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	uniform := func(int) int { return rng.Intn(keys) }
	amplification(t, s, keys, func(i int) int { return i }, nil)
	amplification(t, s, 2*keys, uniform, nil) // the log reaches two images
	passes := counter("store.wal.snapshots")
	var amp float64
	const rounds = 4
	for round := 0; round < rounds; round++ {
		amp += amplification(t, s, 10*keys/rounds, uniform, func(i int, log, at int64) {
			if at != 2*image {
				t.Fatalf("threshold %d after set %d, want twice the %d-byte image", at, i, image)
			}
			if i%100 == 0 {
				if _, size := segFiles(t, dir); size > 2*image+segBytes {
					t.Fatalf("%d bytes of segments on disk after set %d, more than two %d-byte images and a segment", size, i, image)
				}
			}
		}) / rounds
		want := rawState(s)
		if err := s.Close(); err != nil {
			t.Fatalf("close after round %d: %v", round, err)
		}
		if s, err = OpenSharded(opts, wopts); err != nil {
			t.Fatalf("reopen after round %d: %v", round, err)
		}
		diffStates(t, fmt.Sprintf("reopen after round %d", round), rawState(s), want)
		if replayed := int64(s.Recovery().WALRecords) * pacingRecord; replayed > 2*image+segBytes {
			t.Fatalf("reopen after round %d replayed %d log bytes on a %d-byte image", round, replayed, image)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	t.Logf("%.3f log bytes per byte of user frames over %d passes", amp, counter("store.wal.snapshots")-passes)
	if amp > 1.4 {
		t.Fatalf("uniform overwrites cost %.3f log bytes per byte of user frames, want at most 1.4", amp)
	}
}

// TestCheckpointFloor: a store whose image is below half of
// SnapshotBytes × Shards() cleans at that floor and not before it, and
// a pass over a segment whose every record was rewritten since copies
// nothing.
func TestCheckpointFloor(t *testing.T) {
	const floor, segBytes = 4 * (4 << 10), 4 * (4 << 10) / segShare
	s, err := OpenSharded(Options{Shards: 4, MerkleBuckets: 64},
		WALOptions{Dir: t.TempDir(), Fsync: FsyncNever, SnapshotBytes: 4 << 10})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	passes := counter("store.wal.snapshots")
	var maxLog int64
	amp := amplification(t, s, 5*floor/pacingRecord, func(i int) int { return i % 20 }, func(i int, log, at int64) {
		if at != floor || log >= floor {
			t.Fatalf("log %d, threshold %d after set %d, want below the floor %d (the image is %d bytes)", log, at, i, floor, 20*pacingRecord)
		}
		maxLog = max(maxLog, log)
	})
	if passes = counter("store.wal.snapshots") - passes; passes < 4 {
		t.Fatalf("%d passes for five floors' worth of log", passes)
	}
	if maxLog < floor-segBytes-pacingRecord {
		t.Fatalf("the log never grew past %d bytes: cleaned below the %d-byte floor", maxLog, floor)
	}
	if amp != 1 {
		t.Fatalf("%.3f log bytes per byte of user frames: a pass copied a record rewritten since", amp)
	}
}

// TestCheckpointSkipsGrowth: a store that only grows keeps its log at
// one image, below twice the image, so 64 floors' worth of inserts are
// never cleaned and the log holds exactly the frames written.
func TestCheckpointSkipsGrowth(t *testing.T) {
	const floor, segBytes = 4 * (1 << 10), 4 * (1 << 10) / segShare
	dir := t.TempDir()
	s, err := OpenSharded(Options{Shards: 4, MerkleBuckets: 64},
		WALOptions{Dir: dir, Fsync: FsyncNever, SnapshotBytes: 1 << 10})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	passes := counter("store.wal.snapshots")
	const sets = 64 * floor / pacingRecord
	amp := amplification(t, s, sets, func(i int) int { return i }, func(i int, log, at int64) {
		// The threshold is twice the image as of the last rotation's
		// census, at most a segment of inserts ago.
		if image := int64(i+1) * pacingRecord; at < max(floor, 2*(image-segBytes)) || at > max(floor, 2*image) {
			t.Fatalf("threshold %d after %d inserts, want twice the %d-byte image, a segment ago", at, i+1, image)
		}
	})
	if passes = counter("store.wal.snapshots") - passes; passes != 0 || amp != 1 {
		t.Fatalf("%d passes, %.3f log bytes per byte of user frames, for a store that only grew", passes, amp)
	}
	segs, size := segFiles(t, dir)
	if want := int64(sets*pacingRecord + len(segs)*segHead); size != want {
		t.Fatalf("%d bytes in %d segments, want the %d frames written and the headers (%d)", size, len(segs), sets, want)
	}
}

// TestCheckpointHotCold: a history whose cold keys, written once, sit
// in the oldest segments, while a hot tenth of the keys is overwritten,
// copies the cold image once a lap: the log writes at most twice the
// user frames, the worst case's bound.
func TestCheckpointHotCold(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	s, err := OpenSharded(Options{Shards: 4, MerkleBuckets: 64},
		WALOptions{Dir: t.TempDir(), Fsync: FsyncNever, SnapshotBytes: 8 << 10})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	const cold, hot = 400, 40
	hotKey := func(int) int { return cold + rng.Intn(hot) }
	amplification(t, s, cold+hot, func(i int) int { return i }, nil)
	amplification(t, s, 2*(cold+hot), hotKey, nil) // the log reaches two images
	amp := amplification(t, s, 10*(cold+hot), hotKey, nil)
	t.Logf("%.3f log bytes per byte of user frames", amp)
	if amp > 2 {
		t.Fatalf("hot/cold overwrites cost %.3f log bytes per byte of user frames, want at most 2", amp)
	}
}

// TestCheckpointKeepsConcurrentWrites: four writers overwrite, delete
// and purge one key set while the background cleaner runs at a small
// floor. A clean reopen must replay exactly the state they left: a copy
// appended after a newer write of its key would bring the older record
// back.
func TestCheckpointKeepsConcurrentWrites(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 4, MerkleBuckets: 64}
	wopts := WALOptions{Dir: dir, Fsync: FsyncNever, SnapshotBytes: 1 << 10}
	s, err := OpenSharded(opts, wopts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	passes := counter("store.wal.snapshots")
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for range 1500 {
				k := pacingKey(rng.Intn(100))
				switch rng.Intn(10) {
				case 0:
					s.Delete(k)
				case 1:
					s.Purge(k, math.MaxUint64)
				default:
					s.Set(k, make([]byte, rng.Intn(40)))
				}
			}
		}()
	}
	wg.Wait()
	want := rawState(s)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if counter("store.wal.snapshots") == passes {
		t.Fatal("no cleaning pass ran alongside the writers")
	}
	r, err := OpenSharded(opts, wopts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	diffStates(t, "reopen after concurrent writes and cleaning", rawState(r), want)
}

// TestRecoveryCountsReplayedLog: a node that restarts more often than
// it logs one threshold must still clean — the segments a reopen
// replays count toward the trigger — so neither the directory nor the
// replay grows with the number of restarts.
func TestRecoveryCountsReplayedLog(t *testing.T) {
	dir := t.TempDir()
	const floor = 4 * (2 << 10)
	opts := Options{Shards: 4, MerkleBuckets: 64}
	wopts := WALOptions{Dir: dir, Fsync: FsyncNever, SnapshotBytes: 2 << 10}
	val := make([]byte, 100)
	// ~2 KiB of log an incarnation, a quarter of the floor, over a key
	// set whose image stays below it.
	const perOpen, keys = 15, 40
	var at int64
	for open := 0; open < 24; open++ {
		s, err := OpenSharded(opts, wopts)
		if err != nil {
			t.Fatalf("open %d: %v", open, err)
		}
		// Everything on disk is replayed, and the writer below left it
		// under the threshold in force.
		if replayed := int64(s.Recovery().WALRecords) * pacingRecord; replayed > max(floor, at) {
			t.Fatalf("open %d replayed %d log bytes, more than the %d-byte threshold", open, replayed, max(floor, at))
		}
		if segs, _ := segFiles(t, dir); len(segs) > int(2*max(floor, at)/(floor/segShare))+2 {
			t.Fatalf("open %d found %d segments stacked: %v", open, len(segs), segs)
		}
		if got := s.Len(); got != min(open*perOpen, keys) {
			t.Fatalf("open %d recovered %d keys, want %d", open, got, min(open*perOpen, keys))
		}
		for i := 0; i < perOpen; i++ {
			_, at = pacedSet(t, s, pacingKey((open*perOpen+i)%keys), val)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close %d: %v", open, err)
		}
	}
	if _, size := segFiles(t, dir); size > at {
		t.Fatalf("24 restarts left %d bytes of log, more than the %d-byte threshold", size, at)
	}
}

// BenchmarkCleanPass times and counts one cleaning pass over a warm
// 128-shard engine's whole image — 50k keys of 9 + 128 bytes, one
// segment of ~7.8 MB — each op rewriting one key first, so that
// Snapshot has a segment to seal and clean. Every live record is read
// through the wal's one buffered reader and frame buffer and copied
// through the log's own buffer, so what an op allocates is the pass's
// files and names: scripts/allocgate.sh holds its B/op far below the
// 64 KiB a reader of its own would cost.
func BenchmarkCleanPass(b *testing.B) {
	s, err := OpenSharded(Options{Shards: 128}, WALOptions{Dir: b.TempDir(), Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	keys := make([]string, 50_000)
	val := make([]byte, 128)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%08d", i)
		s.Set(keys[i], val)
	}
	if err := s.Snapshot(); err != nil {
		b.Fatal(err)
	}
	copied := counter("store.wal.snapshot_bytes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Set(keys[i%len(keys)], val)
		if err := s.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := counter("store.wal.snapshot_bytes") - copied; n != int64(b.N*len(keys)*156) {
		b.Fatalf("%d passes copied %d bytes, want the whole image each", b.N, n)
	}
}

// BenchmarkReopen counts one OpenSharded of a 128-shard engine whose
// log is its image — 50k keys of 9 + 128 bytes in one segment, written
// by Snapshot — closed again before the next. A reopen allocates each
// key's record and, per shard, one index sized from the entry count the
// newest segment's header carries: scripts/allocgate.sh holds its
// allocs/op under what doubling 128 tables up from 8 slots again would
// add (two allocations a doubling, six doublings a shard).
func BenchmarkReopen(b *testing.B) {
	dir := b.TempDir()
	o, wo := Options{Shards: 128}, WALOptions{Dir: dir, Fsync: FsyncNever}
	s, err := OpenSharded(o, wo)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 128)
	for i := range 50_000 {
		s.Set(fmt.Sprintf("k%08d", i), val)
	}
	if err := s.Snapshot(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenSharded(o, wo)
		if err != nil {
			b.Fatal(err)
		}
		if rs := r.Recovery(); rs.WALRecords != 50_000 {
			b.Fatalf("reopen replayed %d log records, want the 50000 of the image", rs.WALRecords)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
