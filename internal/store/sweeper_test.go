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
		s.Set(fmt.Sprintf("key-%d", i), []byte("v"), time.Millisecond)
	}
	ft.advance(time.Second)
	// One bounded pass cannot cover 8 shards...
	exp, _ := s.Sweep(1)
	if exp == 0 || exp >= n {
		t.Fatalf("one bounded pass swept %d of %d — want a strict subset covering >= 1 shard", exp, n)
	}
	// ...but 7 more must, because the cursor rotates.
	total := exp
	for i := 0; i < 7; i++ {
		e, _ := s.Sweep(1)
		total += e
	}
	if total != n {
		t.Fatalf("8 bounded passes swept %d of %d entries", total, n)
	}
	// Every entry is now an expiry tombstone awaiting GC.
	if s.Len() != 0 {
		t.Fatalf("Len = %d after sweeping everything", s.Len())
	}
	// Past the GC horizon, bounded rotation purges them all too.
	ft.advance(2 * time.Hour)
	purged := 0
	for i := 0; i < 8; i++ {
		_, p := s.Sweep(1)
		purged += p
	}
	if purged != n {
		t.Fatalf("bounded GC rotation purged %d of %d tombstones", purged, n)
	}
}

// TestSweeperBackground exercises sweeper.go directly: the background
// loop must reap expired entries via the engine's Sweep, which reports
// them on store.sweep.expired and store.sweep.purged, and Stop must be
// idempotent and wait the loop out.
func TestSweeperBackground(t *testing.T) {
	ft := newFakeTime()
	s := NewSharded(Options{Shards: 4, Now: ft.now, TombstoneGC: time.Hour})
	const n = 100
	for i := 0; i < n; i++ {
		s.Set(fmt.Sprintf("key-%d", i), []byte("v"), time.Millisecond)
	}
	ft.advance(time.Second)
	exp0, pur0 := sweepExpired.Value(), sweepPurged.Value()
	sw := StartSweeper(s, time.Millisecond, 0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if sweepExpired.Value()-exp0 >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweeper reaped %d of %d before the deadline", sweepExpired.Value()-exp0, n)
		}
		time.Sleep(time.Millisecond)
	}
	// Tombstones age out through the same loop.
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
	exp0, pur0 := sweepExpired.Value(), sweepPurged.Value()
	sw := StartSweeper(s, 0, 10)
	sw.Stop()
	if exp, pur := sweepExpired.Value()-exp0, sweepPurged.Value()-pur0; exp != 0 || pur != 0 {
		t.Fatalf("idle sweeper reported %d expired, %d purged", exp, pur)
	}
}
