package store

import (
	"os"
	"slices"

	"pdcedu/internal/obs"
)

// The log is the engine's only on-disk structure, and the cleaner keeps
// it proportional to what the engine holds, one segment at a time, as a
// log-structured file system or Bitcask does:
//
//   - The open segment rotates once it holds floor ÷ 4 bytes, the floor
//     being WALOptions.SnapshotBytes × Shards(): everything appended to
//     it is written and fsynced (the seal), then a fresh segment takes
//     the appends.
//   - While the log holds at least max(floor, 2 × the live image) — the
//     image being the frame bytes of the resident records — the cleaner
//     reads the oldest sealed segment back. A frame whose key's resident
//     record carries the frame's version is live: the resident record is
//     re-appended under its shard lock, through the ordinary append, so
//     the copy is ordered with every write to its key as any write is.
//     Every other frame is dropped, purges included: nothing of their
//     key older than the oldest segment is left for them to remove.
//   - Once everything appended so far is fsynced — the copies, and the
//     writes that outdated every dropped frame — the segment is deleted
//     and the directory fsynced.
//
// The bounds, none weaker than a whole-engine checkpoint's:
//
//   - Writes. A lap over the log copies each live record at most once,
//     at most one image, and takes two images of appends to complete at
//     a log of two images, so the cleaner writes no more than the user
//     writes: at most 2× the log, worst case. Under uniform overwrites
//     the oldest segment is about a fifth live, so it writes about a
//     quarter. A store that only grows keeps its log near one image,
//     below the trigger, and is never cleaned.
//   - Replay. A reopen replays the whole log: below max(floor, 2
//     images) plus a segment and what is appended during a pass.
//   - Disk. The same, at most 2 images and a segment.
//
// Every crash window replays to the engine's state, because replay is
// last-record-wins and a copy re-states a record the log already holds:
//
//   - Copies appended, not yet fsynced: the segment is still on disk,
//     and whatever of the copies reached it repeats it.
//   - Copies fsynced, segment not yet deleted — or deleted with the
//     directory not yet fsynced, so that it comes back: its records
//     replay first and their copies after them.
//   - A torn head after a pass: recovery truncates the open segment at
//     the tear; everything the pass appended was fsynced before the
//     segment was deleted, so the tear takes only later writes.

// maintain is the cleaner loop's one step, and Snapshot's: it rotates
// the open segment once it is due — for Snapshot, once it holds a
// record — then cleans the oldest sealed segment while the log is at
// least cleanAt, or, for Snapshot, every segment sealed so far, so that
// the log becomes the live image. A census of the engine first sets
// cleanAt from the live image and gives the rotation its entry count.
func (w *wal) maintain(manual bool) error {
	w.ckMu.Lock()
	defer w.ckMu.Unlock()
	if w.failed.Load() != nil || w.closed.Load() {
		return w.errOrNil()
	}
	entries, image := w.eng.census()
	w.mu.Lock()
	w.cleanAt = max(w.floor, 2*image)
	rotate := w.open >= w.segBytes || manual && w.open > segHead
	w.mu.Unlock()
	if rotate && !w.rotate(entries) {
		return w.errOrNil()
	}
	progress := rotate
	for n := len(w.sealed); n > 0; n-- {
		w.mu.Lock()
		due := manual || w.sealedBytes+w.open >= w.cleanAt
		w.mu.Unlock()
		if !due || !w.clean() {
			break
		}
		progress = true
	}
	// A run that ends with work left and no append since the token it
	// took hands the next run a token itself.
	w.mu.Lock()
	due := progress && w.due()
	w.mu.Unlock()
	if due {
		w.wake()
	}
	return w.errOrNil()
}

// rotate seals the open segment and opens the next, whose header
// carries entries. It reports whether it did; a failure poisons the
// engine. Callers hold ckMu, so only they move gen.
func (w *wal) rotate(entries int) bool {
	nf, newPath, err := w.createSegment(w.gen+1, entries)
	w.mu.Lock()
	if err != nil {
		w.poison("rotate", newPath, err)
		w.mu.Unlock()
		return false
	}
	for w.flushing {
		w.cond.Wait()
	}
	if w.failed.Load() == nil {
		// Seal the old segment: everything appended so far is written
		// and fsynced here, so the segment is whole before the cleaner
		// can reach it.
		w.flushLocked(true)
	}
	if w.failed.Load() != nil {
		w.mu.Unlock()
		nf.Close() // left header-only; the next recovery deletes it
		return false
	}
	// Records that landed in buf during the seal's I/O were not sealed:
	// they open the new segment.
	old := segment{gen: w.gen, size: w.open - int64(len(w.buf)), path: w.path}
	w.sealed = append(w.sealed, old)
	w.sealedBytes += old.size
	oldF := w.f
	w.f, w.path, w.gen, w.open = nf, newPath, w.gen+1, segHead+int64(len(w.buf))
	w.mu.Unlock()
	oldF.Close()
	return true
}

// clean rewrites the live records of the oldest sealed segment at the
// head of the log, waits until everything appended so far is durable,
// and deletes the segment. It reports whether it did; a failure poisons
// the engine and leaves the segment where it is. Callers hold ckMu.
func (w *wal) clean() bool {
	start := obs.StartTimer()
	seg := w.sealed[0]
	var copied int64
	f, err := os.Open(seg.path)
	if err == nil {
		if _, err = w.rr.open(f, seg.size); err == nil {
			_, _, err = w.rr.each(func(r rec) {
				if !r.purge() {
					copied += w.copyLive(r)
				}
			})
		}
		f.Close()
	}
	if err == nil {
		w.sync()
		if w.failed.Load() != nil {
			return false
		}
		if err = os.Remove(seg.path); err == nil {
			err = w.dir.Sync()
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.poison("clean", seg.path, err)
		return false
	}
	w.sealedBytes -= seg.size
	w.sealed = slices.Delete(w.sealed, 0, 1)
	walSnapshots.Inc()
	walSnapshotBytes.Add(uint64(copied))
	walSnapshotLatency.ObserveSince(start)
	return true
}

// copyLive re-appends the resident record of frame r's key if it still
// carries r's version, and returns the bytes it appended.
func (w *wal) copyLive(r rec) int64 {
	k := r.key()
	sh := w.eng.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, ok := sh.t.lookup(k)
	if !ok || cur.ver != r.ver {
		return 0
	}
	w.append(cur.key(), cur.entry(), false)
	return frameLen(cur)
}

// Snapshot rotates the log and cleans every sealed segment, so the log
// becomes the live image — what the next boot replays — plus whatever
// is written meanwhile. Memory-only engines return nil.
func (s *Sharded) Snapshot() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.maintain(true)
}

// Backlog reports the two sides of the cleaning trigger: the bytes of
// log on disk — what a reopen would replay — and the size at which the
// cleaner runs, max(SnapshotBytes × Shards(), twice the live image) as
// of the cleaner's last census. Both zero for a memory-only engine.
func (s *Sharded) Backlog() (logBytes, checkpointAt int64) {
	w := s.wal
	if w == nil {
		return 0, 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sealedBytes + w.open, w.cleanAt
}
