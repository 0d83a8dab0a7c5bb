package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestDistloadClusterSmoke runs the full CLI path against a spawned
// 3-node cluster with the read cache on, in CI mode: the run must
// complete with zero unexpected errors and nonzero cache hits.
func TestDistloadClusterSmoke(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-spawn", "3", "-rf", "3", "-read-cache", "512",
		"-duration", "500ms", "-keys", "200", "-workers", "8",
		"-dist", "zipfian", "-read-pct", "90", "-ci",
	}, &out)
	if err != nil {
		t.Fatalf("distload -ci failed: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "cache hits=") {
		t.Fatalf("report missing cache stats:\n%s", out.String())
	}
}

// TestDistloadRawOverloadSheds drives the pipelined open-loop driver
// at a rate far above a slow admission-controlled backend's capacity
// and checks the overload surfaces as BUSY sheds, not errors, while
// served reads still complete.
func TestDistloadRawOverloadSheds(t *testing.T) {
	opt := options{
		spawn: 1, mode: "raw", conns: 2, timeout: 2 * time.Second,
		shedQueue: 4, shedInflight: 16, work: 5 * time.Millisecond,
		preload: true, name: "overload",
		load: loadConfig{
			rate: 4000, duration: 500 * time.Millisecond, readPct: 100,
			dist: "uniform", keys: 64, valSize: 32, seed: 1,
		},
	}
	rep, err := runOnce(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity is 2 conns x 32 mux workers / 5ms = ~12.8k... with a
	// 16-deep in-flight budget it is 16/5ms = 3.2k, so a 4k rate must
	// shed. Shed replies are typed, never unexpected errors.
	if rep.Shed == 0 {
		t.Fatalf("no sheds under 4k ops/s against a 3.2k capacity server: %+v", rep)
	}
	if rep.Unexpected != 0 || rep.Timeouts != 0 {
		t.Fatalf("overload produced hard errors: %+v", rep)
	}
	if rep.Reads == 0 || rep.SvcReadP99 == 0 {
		t.Fatalf("no served reads recorded: %+v", rep)
	}
	if rep.ServerShed != rep.Shed {
		t.Fatalf("client-observed sheds %d != server shed counter %d", rep.Shed, rep.ServerShed)
	}
}

// TestDistloadOpenLoopCO checks the coordinated-omission correction:
// against a backend whose every op takes ~20ms, an open-loop schedule
// at 4x the single-connection service rate must report p99 latencies
// well above the raw service time, because late slots are charged
// their queueing delay.
func TestDistloadOpenLoopCO(t *testing.T) {
	opt := options{
		spawn: 1, mode: "raw", conns: 1, timeout: 5 * time.Second,
		work: 20 * time.Millisecond, preload: true, name: "co",
		load: loadConfig{
			// One conn = 32 mux workers; capacity 32/20ms = 1.6k ops/s.
			// 6.4k offered with no shedding: the backlog grows all run.
			rate: 6400, duration: 500 * time.Millisecond, readPct: 100,
			dist: "uniform", keys: 64, valSize: 32, seed: 1,
		},
	}
	rep, err := runOnce(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reads == 0 {
		t.Fatalf("no reads served: %+v", rep)
	}
	// CO-corrected p99 must reflect the backlog (>= several service
	// times), and must dominate the p50: the tail IS the queue.
	if rep.ReadP99 < uint64(100*time.Millisecond) {
		t.Fatalf("CO p99 %s too small for a 4x-overloaded server", ns(rep.ReadP99))
	}
	if rep.ReadP99 <= rep.SvcReadP50 {
		t.Fatalf("CO p99 %s not above service p50 %s", ns(rep.ReadP99), ns(rep.SvcReadP50))
	}
}

// TestKeyPicker checks both distributions produce in-range keys and
// zipfian actually skews toward the low indices.
func TestKeyPicker(t *testing.T) {
	if _, err := newKeyPicker("bogus", 10, 1.2, 1, 1); err == nil {
		t.Fatal("bogus distribution accepted")
	}
	uni, err := newKeyPicker("uniform", 100, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	zip, err := newKeyPicker("zipfian", 100, 1.2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var zipLow int
	for i := 0; i < 10000; i++ {
		if u := uni.next(); u >= 100 {
			t.Fatalf("uniform key %d out of range", u)
		}
		z := zip.next()
		if z >= 100 {
			t.Fatalf("zipf key %d out of range", z)
		}
		if z < 10 {
			zipLow++
		}
	}
	if zipLow < 6000 {
		t.Fatalf("zipf(1.2) put only %d/10000 picks in the hot decile; not skewed", zipLow)
	}
}
