package store

import (
	"fmt"
	"testing"
	"time"

	"pdcedu/internal/obs"
)

// TestMetricsRegistration pins the store's metric surface: every name
// metrics.go documents must exist in the process-global registry with
// the right kind, so a dashboard scraping /metrics never loses a
// series to a renamed or dropped registration.
func TestMetricsRegistration(t *testing.T) {
	counters := []string{
		"store.sweep.purged",
		"store.merkle.leaf_rebuilds",
		"store.wal.appends",
		"store.wal.append_bytes",
		"store.wal.fsyncs",
		"store.wal.errors",
		"store.wal.snapshots",
		"store.wal.snapshot_bytes",
		"store.wal.recovered_records",
		"store.wal.torn_bytes",
	}
	histograms := []string{
		"store.wal.flush_records",
		"store.wal.fsync_ns",
		"store.wal.snapshot_ns",
		"store.wal.recovery_ns",
	}
	snap := obs.Default().Snapshot()
	kinds := map[string]obs.Kind{}
	for _, m := range snap.Metrics {
		kinds[m.Name] = m.Kind
	}
	for _, name := range counters {
		if k, ok := kinds[name]; !ok {
			t.Errorf("counter %q not registered", name)
		} else if k != obs.KindCounter {
			t.Errorf("%q registered as %s, want counter", name, k)
		}
	}
	for _, name := range histograms {
		if k, ok := kinds[name]; !ok {
			t.Errorf("histogram %q not registered", name)
		} else if k != obs.KindHistogram {
			t.Errorf("%q registered as %s, want histogram", name, k)
		}
	}
}

// TestMetricsWALCounters drives a persistent engine through appends,
// fsyncs, a snapshot, and a recovery, and expects the corresponding
// process-global counters to move. Deltas, not absolutes: other tests
// in the package share the registry.
func TestMetricsWALCounters(t *testing.T) {
	read := func() map[string]int64 {
		out := map[string]int64{}
		for _, m := range obs.Default().Snapshot().Metrics {
			out[m.Name] = m.Value
		}
		return out
	}
	before := read()

	dir := t.TempDir()
	opts := Options{Shards: 2, MerkleBuckets: 32}
	wopts := WALOptions{Dir: dir, Fsync: FsyncAlways}
	s, err := OpenSharded(opts, wopts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 50; i++ {
		s.Set(fmt.Sprintf("key-%d", i), []byte("value"))
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	r, err := OpenSharded(opts, wopts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if r.Len() != 50 {
		t.Fatalf("reopened Len = %d, want 50", r.Len())
	}

	after := read()
	for _, name := range []string{
		"store.wal.appends",
		"store.wal.append_bytes",
		"store.wal.fsyncs",
		"store.wal.snapshots",
		"store.wal.snapshot_bytes",
		"store.wal.recovered_records",
	} {
		if after[name] <= before[name] {
			t.Errorf("%s did not advance (%d -> %d)", name, before[name], after[name])
		}
	}
	if d := after["store.wal.appends"] - before["store.wal.appends"]; d < 50 {
		t.Errorf("store.wal.appends advanced by %d, want >= 50", d)
	}
	if d := after["store.wal.errors"] - before["store.wal.errors"]; d != 0 {
		t.Errorf("store.wal.errors advanced by %d on a healthy run", d)
	}
}

// TestMetricsSweepCounters covers the sweep counter:
// store.sweep.purged must account every collected tombstone.
func TestMetricsSweepCounters(t *testing.T) {
	read := func() (pur int64) {
		for _, m := range obs.Default().Snapshot().Metrics {
			if m.Name == "store.sweep.purged" {
				pur = m.Value
			}
		}
		return pur
	}
	purBefore := read()

	ft := newFakeTime()
	s := NewSharded(Options{Shards: 2, Now: ft.now, TombstoneGC: time.Minute})
	for i := 0; i < 20; i++ {
		s.Set(fmt.Sprintf("key-%d", i), []byte("v"))
		s.Delete(fmt.Sprintf("key-%d", i))
	}
	s.Sweep(0)
	ft.advance(2 * time.Minute)
	s.Sweep(0)

	if purAfter := read(); purAfter-purBefore < 20 {
		t.Errorf("store.sweep.purged advanced by %d, want >= 20", purAfter-purBefore)
	}
}
