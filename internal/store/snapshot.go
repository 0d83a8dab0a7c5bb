package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"pdcedu/internal/obs"
)

// Checkpoints bound recovery time and disk growth: once the open
// segment passes WALOptions.SnapshotBytes of log per shard, the log
// rotates to a fresh generation and every shard's table is streamed to
// snap.<G> — G being the generation the checkpoint covers — after
// which the covered segments are deleted. Recovery loads the newest
// checkpoint and replays only the segments after it.
//
// Crash windows are all safe by construction:
//
//   - The old segment is fsynced before the rotation is acked past,
//     so no group-commit ack ever rides on a checkpoint not yet written.
//   - Shards are copied after the rotation, each under its own lock,
//     so every record in a segment <= G is in the checkpoint. A shard
//     copied late also carries writes logged in G+1; replaying those on
//     top is idempotent, because replay is last-record-wins.
//   - The checkpoint is written to a .tmp, fsynced, renamed into place,
//     and the directory fsynced — it exists fully or not at all.
//   - Covered segments and older checkpoints are deleted only after
//     the rename; recovery ignores and removes whatever a crash leaves.

// checkpoint rotates the log and checkpoints everything before the
// rotation, provided the open segment holds at least threshold bytes:
// snapAt for the size trigger (so a token queued while the previous
// checkpoint was rotating is a no-op), one record for the manual one.
func (w *wal) checkpoint(threshold int64) error {
	w.ckMu.Lock()
	defer w.ckMu.Unlock()
	start := obs.StartTimer()

	w.mu.Lock()
	due := w.failed.Load() == nil && !w.closed.Load() && w.size >= threshold
	oldGen := w.gen // only a checkpoint moves gen, and ckMu is held
	w.mu.Unlock()
	if !due {
		return w.errOrNil()
	}
	nf, newPath, err := w.createSegment(oldGen + 1)

	w.mu.Lock()
	if err != nil {
		w.poison("rotate", newPath, err)
		w.mu.Unlock()
		return w.errOrNil()
	}
	for w.flushing {
		w.cond.Wait()
	}
	if w.failed.Load() == nil {
		// Seal the old segment: everything appended so far is written
		// and fsynced here, so acks issued after the swap ride the new
		// file's fsyncs and never depend on the checkpoint below.
		w.flushLocked(true)
	}
	if w.failed.Load() != nil {
		w.mu.Unlock()
		nf.Close() // left magic-only; the next recovery deletes it
		return w.errOrNil()
	}
	// Records that landed in buf during the seal's I/O were not sealed:
	// they open the new segment.
	oldF := w.f
	w.f, w.path, w.gen, w.size = nf, newPath, oldGen+1, magicLen+int64(len(w.buf))
	w.mu.Unlock()
	oldF.Close()

	if err := w.writeCheckpoint(oldGen); err != nil {
		// The old segments stay on disk: recovery replays without the
		// checkpoint and remains exact. Poison anyway — a disk that
		// cannot take a checkpoint will not keep absorbing a growing log
		// for long, and the operator should hear about it now.
		w.mu.Lock()
		w.poison("snapshot", w.snapPath(oldGen), err)
		w.mu.Unlock()
		return w.errOrNil()
	}
	segs, snaps := scanDir(w.o.Dir)
	for _, g := range segs {
		if g <= oldGen {
			os.Remove(w.segPath(g))
		}
	}
	for _, g := range snaps {
		if g < oldGen {
			os.Remove(w.snapPath(g))
		}
	}
	walSnapshots.Inc()
	walSnapshotLatency.ObserveSince(start)
	return nil
}

// writeCheckpoint persists the engine as snap.<gen> atomically: tmp
// file, fsync, rename, directory fsync.
func (w *wal) writeCheckpoint(gen uint64) error {
	path := w.snapPath(gen)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err = w.streamShards(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(w.o.Dir)
}

// streamShards writes the checkpoint body: magic, entry count (patched
// in at the end), then every shard's entries as records. Shards are
// encoded one at a time under their own lock and written with no lock
// held: a checkpoint stalls 1/N of the key space and buffers one shard.
func (w *wal) streamShards(f *os.File) error {
	var hdr [magicLen + 4]byte
	copy(hdr[:], snapMagic)
	if _, err := f.Write(hdr[:]); err != nil {
		return err
	}
	var buf []byte
	count := 0
	for i := range w.eng.shards {
		sh := &w.eng.shards[i]
		buf = buf[:0]
		sh.mu.Lock()
		for k, e := range sh.t.data {
			buf = appendRecord(buf, k, e, false)
		}
		count += len(sh.t.data)
		sh.mu.Unlock()
		if _, err := f.Write(buf); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(hdr[magicLen:], uint32(count))
	_, err := f.WriteAt(hdr[magicLen:], magicLen)
	return err
}

// readSnapshot streams a checkpoint of size bytes from r through fn
// and returns how many entries it delivered. Any framing or count
// mismatch makes the whole file invalid (checkpoints are renamed into
// place whole, so a bad one should not exist): the caller treats it as
// absent and discards what fn was given.
func readSnapshot(r io.Reader, size int64, fn func(key string, e Entry, purge bool)) (int, error) {
	var count [4]byte
	n, left, err := scanRecords(r, size, snapMagic, count[:], fn)
	if err != nil {
		return n, fmt.Errorf("%v at offset %d", err, size-left)
	}
	if want := binary.LittleEndian.Uint32(count[:]); uint32(n) != want {
		return n, fmt.Errorf("snapshot holds %d entries, header says %d", n, want)
	}
	return n, nil
}

// loadSnapshot is readSnapshot over the file at path.
func loadSnapshot(path string, fn func(key string, e Entry, purge bool)) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	n, err := readSnapshot(f, st.Size(), fn)
	if err != nil {
		return n, fmt.Errorf("%s: %w", path, err)
	}
	return n, nil
}

// Snapshot forces a log rotation + checkpoint if the open segment
// holds any record, so the next boot replays a checkpoint instead of
// the whole log. Memory-only engines return nil.
func (s *Sharded) Snapshot() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.checkpoint(magicLen + 1)
}
