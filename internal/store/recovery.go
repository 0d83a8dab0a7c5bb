package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
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
	// WALRecords is how many log records were replayed.
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
// wo.Dir: it replays the log segments oldest first — truncating at the
// first torn or corrupt record, so exactly the intact prefix is
// recovered — observes the largest recovered version on the engine's
// clock, and starts the background fsync and cleaner loops. A directory's manifest pins its shard
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
	w.segBytes = max(w.floor/segShare, segHead+1)
	w.cond.L = &w.mu
	if w.dir, err = os.Open(wo.Dir); err != nil {
		return nil, err
	}
	maxVer, err := w.recover()
	if err != nil {
		w.dir.Close()
		return nil, err
	}
	if maxVer > 0 {
		s.clock.Observe(maxVer)
	}
	w.rec.Elapsed = time.Since(start)
	walRecoveredRecords.Add(uint64(w.rec.WALRecords))
	walTornBytes.Add(uint64(w.rec.TornBytes))
	walRecoveryLatency.Observe(int64(w.rec.Elapsed))
	s.wal = w
	w.start()
	return s, nil
}

// recover rebuilds the engine from the log, its tables sized once
// from the entry count in the newest segment's header, and opens a
// fresh segment (a recovered tail is never appended through again).
// Every segment it keeps is sealed, and counts toward the cleaning
// trigger: log replayed here is as much the log as log appended later,
// and a node that restarts often must not stack segments the trigger
// cannot see. Returns the largest version it installed. The engine is
// not shared yet, so its census is uncontended.
func (w *wal) recover() (maxVer uint64, err error) {
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
	segs := scanDir(w.o.Dir)
	reserveFor(w.eng, w.o.Dir, segs)

	// Replay oldest first, stopping at the first torn or corrupt record:
	// the file is truncated there and any later segments are dropped —
	// by the crash model nothing past the first tear was ever acked as
	// durable.
	var maxGen uint64
	stopped := false
	for _, sg := range segs {
		maxGen = sg.gen
		path := segPath(w.o.Dir, sg.gen)
		if stopped {
			w.rec.TornBytes += sg.size
			os.Remove(path)
			continue
		}
		records, kept, torn, err := w.replaySegment(path, sg.size, apply)
		if err != nil {
			return 0, err
		}
		if records > 0 {
			w.rec.Segments++
			w.rec.WALRecords += records
			w.sealed = append(w.sealed, segment{gen: sg.gen, size: kept, path: path})
			w.sealedBytes += kept
		}
		w.rec.TornBytes += torn
		stopped = torn > 0
	}

	// Fresh segment for this incarnation's appends.
	entries, image := w.eng.census()
	w.cleanAt = max(w.floor, 2*image)
	w.f, w.path, err = w.createSegment(maxGen+1, entries)
	if err != nil {
		return 0, err
	}
	w.gen, w.open = maxGen+1, segHead
	return maxVer, nil
}

// reserveFor sizes s's tables once for a replay of segs, the log in
// dir: for the entry count in the newest whole header — what the engine
// held when that segment was created — capped at what the log's bytes
// can hold.
func reserveFor(s *Sharded, dir string, segs []segment) {
	var size int64
	for _, sg := range segs {
		size += sg.size
	}
	for i := len(segs) - 1; i >= 0; i-- {
		if n, ok := headEntries(segPath(dir, segs[i].gen)); ok {
			s.reserve(entriesFor(n, size))
			return
		}
	}
}

// headEntries reads the entry count from the header of the segment at
// path, and reports whether the header was whole.
func headEntries(path string) (uint32, bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	var head [segHead]byte
	if _, err := io.ReadFull(f, head[:]); err != nil || string(head[:magicLen]) != walMagic {
		return 0, false
	}
	return binary.LittleEndian.Uint32(head[magicLen:]), true
}

// replaySegment streams the segment of size bytes at path through
// apply and reports the records applied, the bytes of the file it
// kept, and the trailing bytes dropped as torn or corrupt. The file is
// truncated to its intact prefix; one left with no record — never
// written to, or torn at its first frame — is deleted, so restarts do
// not pile up empty segments.
func (w *wal) replaySegment(path string, size int64, apply func(rec)) (records int, kept, torn int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	torn = size
	if _, err = w.rr.open(f, size); err == nil {
		records, torn, err = w.rr.each(apply)
	}
	kept = size - torn
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

// scanDir lists the directory's log segments, sorted by generation.
func scanDir(dir string) (segs []segment) {
	des, _ := os.ReadDir(dir)
	for _, de := range des {
		kind, gen, _ := strings.Cut(de.Name(), ".")
		g, err := strconv.ParseUint(gen, 10, 64)
		if err != nil || kind != "wal" {
			continue // WALMETA, its .tmp
		}
		if info, err := de.Info(); err == nil {
			segs = append(segs, segment{gen: g, size: info.Size()})
		}
	}
	slices.SortFunc(segs, func(a, b segment) int { return cmp.Compare(a.gen, b.gen) })
	return segs
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
// field-by-field entry of their own; v3, whose records could carry an
// expiry and numbered their flags around it; or v4, whose whole-engine
// checkpoints (snap.<G>) the cleaned log has replaced and whose
// segments carry no entry count. The directory is left exactly as it
// was.
type LayoutError struct{ Version int }

func (e *LayoutError) Error() string {
	return fmt.Sprintf("WAL layout v%d, but this build reads only v%d and does not migrate (start the node on an empty directory and let it catch up from its replicas)",
		e.Version, manifestVersion)
}

const manifestVersion = 5

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
