package store

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// RecoveryStats summarizes what OpenSharded rebuilt from disk.
type RecoveryStats struct {
	// SnapshotEntries is how many entries were loaded from the checkpoint.
	SnapshotEntries int
	// WALRecords is how many log records were replayed after them.
	WALRecords int
	// Segments is how many log segments held those records.
	Segments int
	// TornBytes counts log bytes dropped at torn or corrupt tails —
	// writes that were in flight at the crash and never fsynced.
	TornBytes int64
	// Elapsed is the wall time the whole reload took.
	Elapsed time.Duration
}

// OpenSharded opens (or creates) a persistent sharded engine on
// wo.Dir: it loads the newest checkpoint, replays the log segments
// after it — truncating at the first torn or corrupt record, so
// exactly the intact prefix is recovered — observes the largest
// recovered version on the engine's clock, and starts the background
// fsync and checkpoint loops. A directory's manifest pins its shard
// count and Merkle bucket count; when one exists it overrides o.Shards
// and o.MerkleBuckets. A directory in an earlier layout is refused
// with a *LayoutError and left untouched.
func OpenSharded(o Options, wo WALOptions) (*Sharded, error) {
	start := time.Now()
	if wo.Dir == "" {
		return nil, fmt.Errorf("store: OpenSharded requires WALOptions.Dir")
	}
	wo = wo.withDefaults()
	if err := os.MkdirAll(wo.Dir, 0o755); err != nil {
		return nil, err
	}
	shards, buckets, ok, err := loadManifest(wo.Dir)
	if err != nil {
		return nil, err
	}
	if ok {
		o.Shards, o.MerkleBuckets = shards, buckets
	}
	s := NewSharded(o)
	if !ok {
		if err := writeManifest(wo.Dir, s.Shards(), s.merkle.buckets); err != nil {
			return nil, err
		}
	}
	w := &wal{
		o:     wo,
		eng:   s,
		floor: math.MaxInt64,
		snapC: make(chan struct{}, 1),
		stop:  make(chan struct{}),
	}
	if n := int64(s.Shards()); wo.SnapshotBytes <= math.MaxInt64/n {
		w.floor = wo.SnapshotBytes * n
	}
	w.cond.L = &w.mu
	maxVer, err := w.recover()
	if err != nil {
		return nil, err
	}
	if maxVer > 0 {
		s.clock.Observe(maxVer)
	}
	w.rec.Elapsed = time.Since(start)
	walRecoveredEntries.Add(uint64(w.rec.SnapshotEntries))
	walRecoveredRecords.Add(uint64(w.rec.WALRecords))
	walTornBytes.Add(uint64(w.rec.TornBytes))
	walRecoveryLatency.Observe(int64(w.rec.Elapsed))
	s.wal = w
	w.start()
	return s, nil
}

// recover rebuilds the engine from the newest checkpoint plus the
// segments after it, deletes every file that no longer carries state,
// and opens a fresh segment (a recovered tail is never appended through
// again). The checkpoint's bytes and those of the segments it keeps
// seed the checkpoint trigger: log replayed here is as un-checkpointed
// as log appended later, and a node that restarts often must not stack
// segments the trigger cannot see. Returns the largest version it
// installed. The engine is not shared yet, so it takes no locks.
func (w *wal) recover() (maxVer uint64, err error) {
	segs, snaps := scanDir(w.o.Dir)
	// A checkpoint interrupted before its rename.
	tmps, _ := filepath.Glob(filepath.Join(w.o.Dir, "snap.*.tmp"))
	for _, tmp := range tmps {
		os.Remove(tmp)
	}
	// A record read aliases the reader's frame buffer and is already in
	// the table's layout: installing it copies it over its key's
	// resident record when the lengths match, else into a new one.
	apply := func(r rec) {
		k := r.key() // looked up or copied, so it may alias the buffer
		if r.purge() {
			// Logged only when it removed an entry, and replayed in table
			// order, so whatever is resident now is what it removed.
			w.eng.shardFor(k).t.purge(k, math.MaxUint64)
			return
		}
		w.eng.shardFor(k).t.install(r)
		maxVer = max(maxVer, r.ver)
	}

	// Newest readable checkpoint wins, its tables sized once from its
	// header's count. An unreadable one (impossible after the atomic
	// rename, but cheap to tolerate) has what it installed wiped, and
	// the next older one is tried.
	var snapGen uint64
	for i := len(snaps) - 1; i >= 0 && snapGen == 0; i-- {
		n, size, err := loadSnapshot(w.snapPath(snaps[i]), w.eng.reserve, apply)
		if err != nil {
			for si := range w.eng.shards {
				sh := &w.eng.shards[si]
				sh.t = newTable(sh.t.touch)
			}
			maxVer = 0
			continue
		}
		snapGen, w.rec.SnapshotEntries, w.image = snaps[i], n, size
		for _, older := range snaps[:i] {
			os.Remove(w.snapPath(older))
		}
	}

	// Replay segments after the checkpoint, oldest first, stopping at
	// the first torn or corrupt record: the file is truncated there and
	// any later segments are dropped — by the crash model nothing past
	// the first tear was ever acked as durable.
	maxGen := snapGen
	stopped := false
	w.backlog = magicLen // the fresh segment's
	for _, g := range segs {
		maxGen = max(maxGen, g)
		path := w.segPath(g)
		if g <= snapGen || stopped {
			if st, err := os.Stat(path); stopped && err == nil {
				w.rec.TornBytes += st.Size()
			}
			os.Remove(path)
			continue
		}
		records, kept, torn, err := replaySegment(path, apply)
		if err != nil {
			return 0, err
		}
		if records > 0 {
			w.rec.Segments++
			w.rec.WALRecords += records
		}
		w.backlog += kept
		w.rec.TornBytes += torn
		stopped = torn > 0
	}

	// Fresh segment for this incarnation's appends.
	w.f, w.path, err = w.createSegment(maxGen + 1)
	if err != nil {
		return 0, err
	}
	w.gen = maxGen + 1
	return maxVer, nil
}

// replaySegment streams the segment at path through apply and reports
// the records applied, the bytes of the file it kept, and the trailing
// bytes dropped as torn or corrupt. The file is truncated to its intact
// prefix; one left with no record — never written to, or torn at its
// first frame — is deleted, so restarts do not pile up empty segments.
func replaySegment(path string, apply func(rec)) (records int, kept, torn int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, 0, err
	}
	records, torn, err = scanRecords(f, st.Size(), walMagic, nil, apply)
	kept = st.Size() - torn
	switch {
	case err != nil && err != errTornRecord && err != errCorruptRecord:
		return records, 0, 0, fmt.Errorf("%s: %w", path, err)
	case records == 0:
		kept, err = 0, os.Remove(path)
	case torn > 0: // every torn or corrupt stop leaves bytes unread
		err = os.Truncate(path, kept)
	}
	return records, kept, torn, err
}

// scanDir lists the directory's log segment and checkpoint
// generations, each sorted ascending.
func scanDir(dir string) (segs, snaps []uint64) {
	des, _ := os.ReadDir(dir)
	for _, de := range des {
		kind, gen, _ := strings.Cut(de.Name(), ".")
		g, err := strconv.ParseUint(gen, 10, 64)
		switch {
		case err != nil: // WALMETA, an interrupted checkpoint's .tmp
		case kind == "wal":
			segs = append(segs, g)
		case kind == "snap":
			snaps = append(snaps, g)
		}
	}
	slices.Sort(segs)
	slices.Sort(snaps)
	return segs, snaps
}

// Manifest: one tiny file pinning the directory's layout version and
// engine geometry, so a reopen with different Options cannot build
// Merkle trees that no longer compare with the peers'.

const (
	manifestName = "WALMETA"
	// Limits a manifest is held to before anything is sized from it.
	maxManifestShards  = 1 << 16
	maxManifestBuckets = 1 << 24
)

// LayoutError is OpenSharded's refusal of a data directory in a layout
// this build does not read: v1, the per-shard s<N>.wal.<G> and
// s<N>.snap.<G> files; v2, whose frames carried a length and a
// field-by-field entry of their own; or v3, whose records could carry
// an expiry and numbered their flags around it. The directory is left
// exactly as it was.
type LayoutError struct{ Version int }

func (e *LayoutError) Error() string {
	return fmt.Sprintf("WAL layout v%d, but this build reads only v%d and does not migrate (start the node on an empty directory and let it catch up from its replicas)",
		e.Version, manifestVersion)
}

const manifestVersion = 4

// parseManifest decodes a manifest body, refusing other layout
// versions and out-of-range geometry.
func parseManifest(b []byte) (shards, buckets int, err error) {
	var version int
	if _, err := fmt.Sscanf(string(b), "pdcedu-wal v%d\nshards %d\nbuckets %d\n", &version, &shards, &buckets); err != nil {
		return 0, 0, err
	}
	if version != manifestVersion {
		return 0, 0, &LayoutError{Version: version}
	}
	if shards < 1 || shards > maxManifestShards || buckets < shards || buckets > maxManifestBuckets {
		return 0, 0, fmt.Errorf("geometry out of range: %d shards, %d buckets", shards, buckets)
	}
	return shards, buckets, nil
}

func loadManifest(dir string) (shards, buckets int, ok bool, err error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return 0, 0, false, nil
	}
	if err == nil {
		shards, buckets, err = parseManifest(b)
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("store: manifest %s/%s: %w", dir, manifestName, err)
	}
	return shards, buckets, true, nil
}

func writeManifest(dir string, shards, buckets int) error {
	body := fmt.Sprintf("pdcedu-wal v%d\nshards %d\nbuckets %d\n", manifestVersion, shards, buckets)
	if _, _, err := parseManifest([]byte(body)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, manifestName)
	if err := os.WriteFile(path+".tmp", []byte(body), 0o644); err != nil {
		return err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return err
	}
	return syncDir(dir)
}

// Recovery reports what the engine reloaded at OpenSharded time; the
// zero value for memory-only engines.
func (s *Sharded) Recovery() RecoveryStats {
	if s.wal == nil {
		return RecoveryStats{}
	}
	return s.wal.rec
}
