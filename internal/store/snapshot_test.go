package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// snapFiles lists the directory's snapshot and segment file names.
func snapFiles(t *testing.T, dir string) (snaps, segs []string) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	for _, de := range des {
		switch {
		case strings.HasPrefix(de.Name(), "snap."):
			snaps = append(snaps, de.Name())
		case strings.HasPrefix(de.Name(), "wal."):
			segs = append(segs, de.Name())
		}
	}
	return snaps, segs
}

// TestWALSnapshotRotation drives both snapshot triggers — the manual
// barrier and the segment-size threshold — and expects reopen to come
// back from snapshot + tail with the exact state and truncated logs.
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
	if err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	snaps, _ := snapFiles(t, dir)
	if len(snaps) == 0 {
		t.Fatal("manual Snapshot wrote no snapshot files")
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
	rec := r.Recovery()
	if rec.SnapshotEntries == 0 {
		t.Fatalf("reopen loaded no snapshot entries: %+v", rec)
	}
	if rec.WALRecords != 51 {
		t.Fatalf("tail replay saw %d records, want 51 (50 updates + 1 delete)", rec.WALRecords)
	}
	r.Close()

	// Size-triggered rotation: a small threshold must produce
	// snapshots in the background without any manual call.
	dir2 := t.TempDir()
	s2, err := OpenSharded(opts, WALOptions{Dir: dir2, Fsync: FsyncInterval, SnapshotBytes: 2 << 10})
	if err != nil {
		t.Fatalf("open small-threshold: %v", err)
	}
	defer s2.Close()
	for i := 0; i < 2000; i++ {
		s2.Set(fmt.Sprintf("key-%d", i%200), []byte(fmt.Sprintf("value-%d", i)))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snaps, _ := snapFiles(t, dir2)
		if len(snaps) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("size threshold never triggered a background snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s2.Err(); err != nil {
		t.Fatalf("engine poisoned by background snapshots: %v", err)
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
// — v1's per-shard files, v2's one log of length-framed entries, or
// v3's records that could carry an expiry — is refused with the typed
// error, and nothing in it is touched: no new manifest, no new segment,
// no deleted file.
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

// pacedSet is Set by a writer that waits out every checkpoint it makes
// due — the rotation and the image behind it — so checkpoints land
// exactly where the trigger puts them, hold exactly the writes before
// them, and can be counted. It returns the threshold in force after
// the write.
func pacedSet(t *testing.T, s *Sharded, key string, val []byte) int64 {
	t.Helper()
	s.Set(key, val)
	deadline := time.Now().Add(10 * time.Second)
	for {
		// ckMu is held from before a rotation until its image is in
		// place, so under it the backlog and threshold are settled.
		if !s.wal.ckMu.TryLock() {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		log, at := s.Backlog()
		s.wal.ckMu.Unlock()
		if log < at {
			return at
		}
		if err := s.Err(); err != nil {
			t.Fatalf("engine poisoned waiting for a checkpoint: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint due at %d bytes never ran (backlog %d)", at, log)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// pacingRecord is the log (and image) bytes of one record the pacing
// tests write: an 8-byte key and a 100-byte value, framed (CRC and
// version) around the table's record header.
const pacingRecord = frameHead + baseHeader + 8 + 100

func pacingKey(i int) string { return fmt.Sprintf("key-%04d", i) }

// TestCheckpointPacedByImage is the pacing rule end to end: one writer
// overwrites a fixed key set whose image is far above the floor for
// twelve images' worth of log, across clean restarts. Checkpoints must
// write no more than the log did (plus one image), come once per image
// of log, and leave every reopen at most one image of log to replay —
// restarts included, since replayed log counts toward the trigger.
func TestCheckpointPacedByImage(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 4, MerkleBuckets: 64}
	wopts := WALOptions{Dir: dir, Fsync: FsyncNever, SnapshotBytes: 1 << 10}
	const keys, sets = 400, 12 * 400
	val := make([]byte, 100)

	s, err := OpenSharded(opts, wopts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < keys; i++ {
		s.Set(pacingKey(i), val)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	const image = magicLen + 4 + keys*pacingRecord
	if _, at := s.Backlog(); at != image {
		t.Fatalf("threshold after a %d-byte checkpoint is %d, want the image", image, at)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	snaps0, snapBytes0, appended0 := counter("store.wal.snapshots"), counter("store.wal.snapshot_bytes"), counter("store.wal.append_bytes")

	for i := 0; i < sets; i++ {
		val[0] = byte(i)
		pacedSet(t, s, pacingKey(i%keys), val)
		if i%1000 != 999 {
			continue
		}
		want := rawState(s)
		if err := s.Close(); err != nil {
			t.Fatalf("close at %d: %v", i, err)
		}
		if s, err = OpenSharded(opts, wopts); err != nil {
			t.Fatalf("reopen at %d: %v", i, err)
		}
		diffStates(t, fmt.Sprintf("reopen at %d", i), rawState(s), want)
		rec := s.Recovery()
		if rec.SnapshotEntries != keys {
			t.Fatalf("reopen at %d loaded %d checkpoint entries, want %d", i, rec.SnapshotEntries, keys)
		}
		if replayed := int64(rec.WALRecords) * pacingRecord; replayed > image+walFlushBytes {
			t.Fatalf("reopen at %d replayed %d log bytes on a %d-byte image", i, replayed, image)
		}
		if log, at := s.Backlog(); at != image || log < int64(rec.WALRecords)*pacingRecord {
			t.Fatalf("reopen at %d: backlog %d, threshold %d; want the %d replayed records counted against the loaded image %d",
				i, log, at, rec.WALRecords, image)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	snaps := counter("store.wal.snapshots") - snaps0
	snapBytes := counter("store.wal.snapshot_bytes") - snapBytes0
	appended := counter("store.wal.append_bytes") - appended0
	if appended != sets*pacingRecord {
		t.Fatalf("appended %d log bytes, want %d", appended, sets*pacingRecord)
	}
	if snapBytes != snaps*image {
		t.Fatalf("store.wal.snapshot_bytes advanced %d over %d checkpoints of %d bytes", snapBytes, snaps, image)
	}
	if snapBytes > appended+image {
		t.Fatalf("checkpoints wrote %d bytes for %d of log: more than the log plus one image", snapBytes, appended)
	}
	if want := appended / image; snaps < want-1 || snaps > want+1 {
		t.Fatalf("%d checkpoints for %d images' worth of log", snaps, want)
	}
}

// TestCheckpointFloor: a store whose image is below SnapshotBytes ×
// Shards() checkpoints at that floor, as it did before checkpoints were
// paced by the image.
func TestCheckpointFloor(t *testing.T) {
	const floor = 4 * (4 << 10)
	s, err := OpenSharded(Options{Shards: 4, MerkleBuckets: 64},
		WALOptions{Dir: t.TempDir(), Fsync: FsyncNever, SnapshotBytes: 4 << 10})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	snaps0 := counter("store.wal.snapshots")
	val := make([]byte, 100)
	const sets = 5 * floor / pacingRecord
	for i := 0; i < sets; i++ {
		if at := pacedSet(t, s, pacingKey(i%20), val); at != floor {
			t.Fatalf("threshold %d after set %d, want the floor %d (the image is %d bytes)", at, i, floor, 20*pacingRecord)
		}
	}
	if snaps := counter("store.wal.snapshots") - snaps0; snaps != 4 && snaps != 5 {
		t.Fatalf("%d checkpoints for five floors' worth of log, want one per floor", snaps)
	}
}

// TestCheckpointGrowthIsGeometric: a store that only grows checkpoints
// at doubling intervals — each image is as large as all the log before
// it — so 64 floors' worth of inserts take about log2(64) checkpoints,
// not 64, and they write no more than twice what the log did.
func TestCheckpointGrowthIsGeometric(t *testing.T) {
	const floor = 4 * (1 << 10)
	s, err := OpenSharded(Options{Shards: 4, MerkleBuckets: 64},
		WALOptions{Dir: t.TempDir(), Fsync: FsyncNever, SnapshotBytes: 1 << 10})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	snaps0, snapBytes0 := counter("store.wal.snapshots"), counter("store.wal.snapshot_bytes")
	val := make([]byte, 100)
	const sets = 64 * floor / pacingRecord
	thresholds := []int64{floor}
	for i := 0; i < sets; i++ {
		if at := pacedSet(t, s, pacingKey(i), val); at != thresholds[len(thresholds)-1] {
			thresholds = append(thresholds, at)
		}
	}
	// The first image is one floor of log, so the threshold first moves
	// at the second checkpoint; from there every one doubles it.
	for i := 2; i < len(thresholds); i++ {
		if prev, at := thresholds[i-1], thresholds[i]; at < prev*19/10 || at > prev*21/10 {
			t.Fatalf("thresholds %v: step %d is not a doubling", thresholds, i)
		}
	}
	snaps := counter("store.wal.snapshots") - snaps0
	if snaps < 6 || snaps > 8 {
		t.Fatalf("%d checkpoints for 64 floors' worth of inserts (thresholds %v), want about log2(64)+1", snaps, thresholds)
	}
	if snapBytes := counter("store.wal.snapshot_bytes") - snapBytes0; snapBytes > 2*sets*pacingRecord {
		t.Fatalf("checkpoints wrote %d bytes for %d of log while growing: more than twice the log", snapBytes, sets*pacingRecord)
	}
}

// TestRecoveryCountsReplayedLog: a node that restarts more often than
// it logs one threshold must still checkpoint — the segments a reopen
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
	for open := 0; open < 24; open++ {
		s, err := OpenSharded(opts, wopts)
		if err != nil {
			t.Fatalf("open %d: %v", open, err)
		}
		if replayed := int64(s.Recovery().WALRecords) * pacingRecord; replayed > floor+pacingRecord {
			t.Fatalf("open %d replayed %d log bytes, more than the %d-byte threshold", open, replayed, floor)
		}
		if _, segs := snapFiles(t, dir); len(segs) > floor/(perOpen*pacingRecord)+2 {
			t.Fatalf("open %d found %d segments stacked: %v", open, len(segs), segs)
		}
		if got := s.Len(); got != min(open*perOpen, keys) {
			t.Fatalf("open %d recovered %d keys, want %d", open, got, min(open*perOpen, keys))
		}
		for i := 0; i < perOpen; i++ {
			pacedSet(t, s, pacingKey((open*perOpen+i)%keys), val)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close %d: %v", open, err)
		}
	}
	if snaps, _ := snapFiles(t, dir); len(snaps) != 1 {
		t.Fatalf("24 restarts left checkpoints %v, want exactly one", snaps)
	}
}

// BenchmarkCheckpoint times and counts one checkpoint of a warm
// 128-shard engine — 50k keys of 9 + 128 bytes, ~61 KiB of frames a
// shard — each op rewriting one key first so the manual checkpoint is
// due. The engine's first checkpoint, before the timer, sizes the shard
// copy, so what an op allocates is the checkpoint's files and names,
// never a copy: scripts/allocgate.sh holds its B/op far below one
// shard's frames.
func BenchmarkCheckpoint(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Set(keys[i%len(keys)], val)
		if err := s.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReopen counts one OpenSharded of a checkpointed 128-shard
// engine — 50k keys of 9 + 128 bytes, all in the checkpoint, no log
// to replay — closed again before the next. A reopen allocates each
// key's record and, per shard, one index sized from the checkpoint's
// entry count: scripts/allocgate.sh holds its allocs/op under what
// doubling 128 tables up from 8 slots again would add (two
// allocations a doubling, six doublings a shard).
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
		if rs := r.Recovery(); rs.SnapshotEntries != 50_000 || rs.WALRecords != 0 {
			b.Fatalf("reopen recovered %d checkpointed entries and %d log records, want 50000 and 0", rs.SnapshotEntries, rs.WALRecords)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
