package main

import (
	"bytes"
	"io"
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
		"-duration", "500ms", "-keys", "200", "-rate", "2000",
		"-dist", "zipfian", "-read-pct", "90", "-ci",
	}, &out)
	if err != nil {
		t.Fatalf("distload -ci failed: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "cache hits=") {
		t.Fatalf("report missing cache stats:\n%s", out.String())
	}
}

// TestDistloadRejectsClosedLoop checks that a schedule needs a rate:
// distload has no closed loop.
func TestDistloadRejectsClosedLoop(t *testing.T) {
	if err := run([]string{"-spawn", "1", "-rf", "1", "-rate", "0", "-quiet"}, io.Discard); err == nil {
		t.Fatal("-rate 0 accepted")
	}
}

// TestDistloadOverloadSheds offers a slow admission-controlled backend,
// through the coordinator at rf 1, a rate far above its capacity, and
// checks the overload surfaces as BUSY sheds, not errors, while served
// reads still complete.
func TestDistloadOverloadSheds(t *testing.T) {
	rep, err := runOnce(options{
		spawn: 1, rf: 1, timeout: 2 * time.Second,
		shedQueue: 4, shedInflight: 16, work: 5 * time.Millisecond,
		preload: true, name: "overload",
		rate: 4000, duration: 500 * time.Millisecond, readPct: 100,
		dist: "uniform", keys: 64, valSize: 32, seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The coordinator's one connection has 32 mux workers, but the
	// 16-deep in-flight budget caps capacity at 16/5ms = 3.2k ops/s, so a
	// 4k rate must shed. Shed replies are typed, never unexpected errors.
	if rep.Shed == 0 {
		t.Fatalf("no sheds under 4k ops/s against a 3.2k capacity server: %+v", rep)
	}
	if rep.Unexpected != 0 || rep.Timeouts != 0 {
		t.Fatalf("overload produced hard errors: %+v", rep)
	}
	if rep.Reads == 0 || rep.ReadSvc.Quantile(0.99) == 0 {
		t.Fatalf("no served reads recorded: %+v", rep)
	}
	// At rf 1 every shed read is one shed frame: the client's count and
	// the server's must agree.
	if rep.ServerShed != rep.Shed {
		t.Fatalf("client-observed sheds %d != server shed counter %d", rep.Shed, rep.ServerShed)
	}
}

// TestDistloadOpenLoopCO checks the coordinated-omission correction:
// against a backend whose every op takes ~20ms, an open-loop schedule
// at 4x its service rate must report p99 latencies well above the
// service time of one op, because late slots are charged their queueing
// delay — and that queue must be the cluster's, not the generator's:
// the service time, measured from each op's send, carries the same
// tail.
func TestDistloadOpenLoopCO(t *testing.T) {
	rep, err := runOnce(options{
		spawn: 1, rf: 1, timeout: 5 * time.Second,
		work: 20 * time.Millisecond, preload: true, name: "co",
		// One connection = 32 mux workers; capacity 32/20ms = 1.6k ops/s.
		// 6.4k offered with no shedding: the backlog grows all run.
		rate: 6400, duration: 500 * time.Millisecond, readPct: 100,
		dist: "uniform", keys: 64, valSize: 32, seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reads == 0 {
		t.Fatalf("no reads served: %+v", rep)
	}
	// CO-corrected p99 must reflect the backlog (>= several service
	// times), and must dominate the p50: the tail IS the queue.
	co, svc := rep.Read.Quantile(0.99), rep.ReadSvc.Quantile(0.99)
	if co < uint64(100*time.Millisecond) {
		t.Fatalf("CO p99 %s too small for a 4x-overloaded server", ns(co))
	}
	if co <= rep.ReadSvc.Quantile(0.50) {
		t.Fatalf("CO p99 %s not above service p50 %s", ns(co), ns(rep.ReadSvc.Quantile(0.50)))
	}
	// The dispatcher never waits for a reply, so the backlog sits in the
	// cluster: service p99 carries it, and the gap is the dispatcher's
	// own lag.
	if svc == 0 || co-min(co, svc) > uint64(50*time.Millisecond) {
		t.Fatalf("CO p99 %s vs service p99 %s: the backlog is in the generator, not the cluster", ns(co), ns(svc))
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
