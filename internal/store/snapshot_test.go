package store

import (
	"errors"
	"fmt"
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
		s.Set(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i)), 0)
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
		s.Set(fmt.Sprintf("key-%d", i), []byte("updated"), 0)
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
		s2.Set(fmt.Sprintf("key-%d", i%200), []byte(fmt.Sprintf("value-%d", i)), 0)
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
	s.Set("doomed", []byte("v"), 0)
	s.Set("kept", []byte("v"), 0)
	s.Delete("doomed")
	ft.advance(2 * time.Minute)
	s.Sweep(0)
	if _, ok := s.Load("doomed"); ok {
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
	if e, ok := r.Load("doomed"); ok {
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
		s.Set(fmt.Sprintf("key-%d", i), []byte("v"), 0)
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
				s.Set(fmt.Sprintf("key-%d", k), []byte("v"), 0)
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

// TestRecoveryRefusesV1Layout: a directory written by the per-shard
// layout is refused with the typed error, and nothing in it is
// touched — no new manifest, no new segment, no deleted file.
func TestRecoveryRefusesV1Layout(t *testing.T) {
	dir := t.TempDir()
	seg := appendRecord([]byte(walMagic), "k", Entry{Value: []byte("v"), Version: 1}, false)
	v1 := map[string][]byte{
		"WALMETA":  []byte("pdcedu-wal v1\nshards 2\nbuckets 32\n"),
		"s0.wal.1": seg,
		"s1.wal.1": []byte(walMagic),
	}
	for name, b := range v1 {
		if err := os.WriteFile(dir+"/"+name, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := OpenSharded(Options{}, WALOptions{Dir: dir})
	var le *LayoutError
	if !errors.As(err, &le) || le.Version != 1 || !strings.Contains(err.Error(), dir) {
		t.Fatalf("open of a v1 directory returned %v, want *LayoutError{Version: 1}", err)
	}
	if got := copyFiles(t, dir, func(string) bool { return true }); !reflect.DeepEqual(got, v1) {
		t.Fatalf("refused open modified the directory: now holds %d files", len(got))
	}
}
