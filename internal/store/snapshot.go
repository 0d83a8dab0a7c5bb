package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"pdcedu/internal/obs"
)

// Checkpoints bound recovery time and disk growth: once the
// un-checkpointed log has grown as large as the image it would replace
// — max(WALOptions.SnapshotBytes × Shards(), bytes of the newest
// checkpoint) — the log rotates to a fresh generation and every
// shard's table is streamed to snap.<G>, G being the generation the
// checkpoint covers, after which the covered segments are deleted.
// Recovery loads the newest checkpoint and replays only the segments
// after it.
//
// Pacing by the image is what keeps the cost proportional whatever the
// data size: an image is rewritten only after at least its own size of
// log, so checkpoints write no more than the log does once the store
// has stopped growing (and no more than twice the log while it doubles,
// the image then being up to image + log); recovery reads one image
// plus at most max(floor, image) of log, plus what was appended while
// the last checkpoint was being written; and the directory peaks at
// three images — the old checkpoint, its log, and the .tmp replacing
// both. SnapshotBytes is the floor below which a small store does not
// bother.
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

// checkpointAt is the backlog at which the size trigger fires: the log
// is checkpointed when it is as large as the image it would replace,
// and never below the floor. Callers hold mu.
func (w *wal) checkpointAt() int64 { return max(w.floor, w.image) }

// checkpoint rotates the log and checkpoints everything before the
// rotation, provided the backlog has reached its threshold:
// checkpointAt for the size trigger (so a token queued while the
// previous checkpoint was rotating is a no-op), one record for the
// manual one.
func (w *wal) checkpoint(manual bool) error {
	w.ckMu.Lock()
	defer w.ckMu.Unlock()
	start := obs.StartTimer()

	w.mu.Lock()
	threshold := w.checkpointAt()
	if manual {
		threshold = magicLen + 1
	}
	due := w.failed.Load() == nil && !w.closed.Load() && w.backlog >= threshold
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
	w.f, w.path, w.gen, w.backlog = nf, newPath, oldGen+1, magicLen+int64(len(w.buf))
	w.mu.Unlock()
	oldF.Close()

	image, err := w.writeCheckpoint(oldGen)
	w.mu.Lock()
	if err != nil {
		// The old segments stay on disk: recovery replays without the
		// checkpoint and remains exact. Poison anyway — a disk that
		// cannot take a checkpoint will not keep absorbing a growing log
		// for long, and the operator should hear about it now.
		w.poison("snapshot", w.snapPath(oldGen), err)
		w.mu.Unlock()
		return w.errOrNil()
	}
	w.image = image
	w.mu.Unlock()
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

// writeCheckpoint persists the engine as snap.<gen> atomically — tmp
// file, fsync, rename, directory fsync — and returns the image's bytes.
func (w *wal) writeCheckpoint(gen uint64) (int64, error) {
	path := w.snapPath(gen)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	n, err := w.streamShards(f)
	walSnapshotBytes.Add(uint64(n))
	if err == nil {
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
		return 0, err
	}
	return n, syncDir(w.o.Dir)
}

// streamShards writes the checkpoint body: magic, entry count (patched
// in at the end), then every shard's records, each copied out as it is
// and framed like a log record. Shards are copied one at a time under
// their own lock and written with no lock held: a checkpoint stalls
// 1/N of the key space. The copy is made in w.ckBuf, which keeps the
// largest shard's size from one checkpoint to the next, so a
// checkpoint of a store that has stopped growing allocates no copy.
// Callers hold ckMu. Returns the bytes written.
func (w *wal) streamShards(f *os.File) (int64, error) {
	var hdr [magicLen + 4]byte
	copy(hdr[:], snapMagic)
	if _, err := f.Write(hdr[:]); err != nil {
		return 0, err
	}
	buf := w.ckBuf
	defer func() { w.ckBuf = buf[:0] }()
	count, written := 0, int64(len(hdr))
	for i := range w.eng.shards {
		sh := &w.eng.shards[i]
		buf = buf[:0]
		sh.mu.Lock()
		for r := range sh.t.all() {
			start := len(buf)
			buf = append(append(buf, make([]byte, frameHead)...), r.bytes()...)
			seal(buf[start:], r.ver)
		}
		count += sh.t.size()
		sh.mu.Unlock()
		n, err := f.Write(buf)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	binary.LittleEndian.PutUint32(hdr[magicLen:], uint32(count))
	_, err := f.WriteAt(hdr[magicLen:], magicLen)
	return written, err
}

// readSnapshot streams a checkpoint of size bytes from r through fn
// and returns how many entries it delivered. Before the first record
// it hands reserve the entry count the header promises — no more than
// size bytes of frames can hold, so a corrupt count sizes nothing past
// the file. Any framing or count mismatch makes the whole file invalid
// (checkpoints are renamed into place whole, so a bad one should not
// exist): the caller treats it as absent and discards what fn was
// given. As with scanRecords, fn's record is valid only during the
// call.
func readSnapshot(r io.Reader, size int64, reserve func(entries int), fn func(rec)) (int, error) {
	var count [4]byte
	reserved := false
	n, left, err := scanRecords(r, size, snapMagic, count[:], func(r rec) {
		if !reserved {
			reserved = true
			reserve(int(min(int64(binary.LittleEndian.Uint32(count[:])), size/minFrame)))
		}
		fn(r)
	})
	if err != nil {
		return n, fmt.Errorf("%v at offset %d", err, size-left)
	}
	if want := binary.LittleEndian.Uint32(count[:]); uint32(n) != want {
		return n, fmt.Errorf("snapshot holds %d entries, header says %d", n, want)
	}
	return n, nil
}

// loadSnapshot is readSnapshot over the file at path; it also returns
// the file's size.
func loadSnapshot(path string, reserve func(entries int), fn func(rec)) (n int, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	n, err = readSnapshot(f, st.Size(), reserve, fn)
	if err != nil {
		return n, 0, fmt.Errorf("%s: %w", path, err)
	}
	return n, st.Size(), nil
}

// Snapshot forces a log rotation + checkpoint if the un-checkpointed
// log holds any record, so the next boot replays a checkpoint instead
// of the whole log. Memory-only engines return nil.
func (s *Sharded) Snapshot() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.checkpoint(true)
}

// Backlog reports the bytes of log no checkpoint covers yet — what a
// reopen would replay — and the size at which the engine will next
// checkpoint it: max(SnapshotBytes × Shards(), bytes of the newest
// checkpoint). Both zero for a memory-only engine.
func (s *Sharded) Backlog() (logBytes, checkpointAt int64) {
	w := s.wal
	if w == nil {
		return 0, 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.backlog, w.checkpointAt()
}
