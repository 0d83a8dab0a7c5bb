package store

import (
	"fmt"
	"testing"
	"time"
)

// TestSweepRotationBounded pins the cursor rotation a bounded sweep
// relies on: with limit=1 each Sweep call scans at least one shard and
// the persistent cursor walks the rest, so repeated bounded calls
// cover the whole store instead of rescanning the same prefix.
func TestSweepRotationBounded(t *testing.T) {
	ft := newFakeTime()
	s := NewSharded(Options{Shards: 8, Now: ft.now, TombstoneGC: time.Hour})
	const n = 400
	for i := 0; i < n; i++ {
		s.Delete(fmt.Sprintf("key-%d", i))
	}
	ft.advance(2 * time.Hour)
	// One bounded pass cannot cover 8 shards...
	purged := s.Sweep(1)
	if purged == 0 || purged >= n {
		t.Fatalf("one bounded pass purged %d of %d — want a strict subset covering >= 1 shard", purged, n)
	}
	// ...but 7 more must, because the cursor rotates.
	for i := 0; i < 7; i++ {
		purged += s.Sweep(1)
	}
	if purged != n {
		t.Fatalf("8 bounded passes purged %d of %d tombstones", purged, n)
	}
}

// TestSweeperBackground exercises sweeper.go directly: the background
// loop must collect aged-out tombstones via the engine's Sweep, which
// reports them on store.sweep.purged, and Stop must be idempotent and
// wait the loop out.
func TestSweeperBackground(t *testing.T) {
	ft := newFakeTime()
	s := NewSharded(Options{Shards: 4, Now: ft.now, TombstoneGC: time.Hour})
	const n = 100
	for i := 0; i < n; i++ {
		s.Set(fmt.Sprintf("key-%d", i), []byte("v"))
		s.Delete(fmt.Sprintf("key-%d", i))
	}
	pur0 := sweepPurged.Value()
	sw := StartSweeper(s, time.Millisecond, 0)
	deadline := time.Now().Add(5 * time.Second)
	// Inside the GC age the loop runs and keeps every tombstone.
	time.Sleep(20 * time.Millisecond)
	if live, tombs := s.Counts(); live != 0 || tombs != n {
		t.Fatalf("%d live entries and %d tombstones before the GC age, want 0 and %d", live, tombs, n)
	}
	// Past it, the same loop collects them.
	ft.advance(2 * time.Hour)
	for {
		if sweepPurged.Value()-pur0 >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweeper purged %d of %d before the deadline", sweepPurged.Value()-pur0, n)
		}
		time.Sleep(time.Millisecond)
	}
	sw.Stop()
	sw.Stop() // idempotent
	if live, tombs := s.Counts(); live != 0 || tombs != 0 {
		t.Fatalf("%d live entries and %d tombstones after background sweep", live, tombs)
	}
}

// TestSweeperDefaultInterval pins the default-interval path: a zero
// interval must not spin or panic — it falls back to one second.
func TestSweeperDefaultInterval(t *testing.T) {
	s := NewSharded(Options{Shards: 2})
	pur0 := sweepPurged.Value()
	sw := StartSweeper(s, 0, 10)
	sw.Stop()
	if pur := sweepPurged.Value() - pur0; pur != 0 {
		t.Fatalf("idle sweeper reported %d purged", pur)
	}
}
