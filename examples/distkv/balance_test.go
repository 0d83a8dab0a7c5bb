package main

import (
	"fmt"
	"sync"
	"testing"
)

// TestSimulateLoadDeterministic pins the fixed-seed behaviour: two runs
// of the same strategy produce identical reports.
func TestSimulateLoadDeterministic(t *testing.T) {
	mk := map[string]func() Balancer{
		"round-robin":     func() Balancer { return NewRoundRobin(8) },
		"least-loaded":    func() Balancer { return NewLeastLoaded(8) },
		"power-of-two":    func() Balancer { return NewPowerOfTwo(8, 42) },
		"consistent-hash": func() Balancer { return NewConsistentHash(8, 64) },
	}
	for name, f := range mk {
		a := SimulateLoad(f(), 8, 10000, 64, 7)
		b := SimulateLoad(f(), 8, 10000, 64, 7)
		if a != b {
			t.Errorf("%s: same seed gave different reports: %+v vs %+v", name, a, b)
		}
		if a.Strategy != name {
			t.Errorf("Strategy = %q, want %q", a.Strategy, name)
		}
		if a.Imbalance < 1 {
			t.Errorf("%s: imbalance %.3f < 1 (peak below mean is impossible)", name, a.Imbalance)
		}
	}
}

// TestSimulateLoadImbalanceOrdering asserts the pedagogical ordering the
// lab is built around, under one fixed seed: round-robin splits
// perfectly, least-loaded and power-of-two stay near ideal, and
// consistent hashing trades balance for key affinity.
func TestSimulateLoadImbalanceOrdering(t *testing.T) {
	const servers, reqs, keys, seed = 8, 10000, 64, 7
	rr := SimulateLoad(NewRoundRobin(servers), servers, reqs, keys, seed)
	ll := SimulateLoad(NewLeastLoaded(servers), servers, reqs, keys, seed)
	p2 := SimulateLoad(NewPowerOfTwo(servers, 42), servers, reqs, keys, seed)
	ch := SimulateLoad(NewConsistentHash(servers, 64), servers, reqs, keys, seed)

	if rr.Max != rr.Min {
		t.Errorf("round-robin: max %d != min %d for reqs divisible by servers", rr.Max, rr.Min)
	}
	if rr.Imbalance != 1 {
		t.Errorf("round-robin imbalance = %.3f, want exactly 1", rr.Imbalance)
	}
	if ll.Imbalance > 1.05 {
		t.Errorf("least-loaded imbalance = %.3f, want <= 1.05", ll.Imbalance)
	}
	if p2.Imbalance > 1.15 {
		t.Errorf("power-of-two imbalance = %.3f, want <= 1.15", p2.Imbalance)
	}
	if ch.Imbalance <= p2.Imbalance {
		t.Errorf("consistent-hash imbalance %.3f should exceed power-of-two %.3f on a %d-key space",
			ch.Imbalance, p2.Imbalance, keys)
	}
}

// TestLeastLoadedTracksInflight checks Pick/Done accounting directly.
func TestLeastLoadedTracksInflight(t *testing.T) {
	l := NewLeastLoaded(3)
	seen := map[int]int{}
	var picks []int
	for i := 0; i < 3; i++ {
		s := l.Pick("k")
		seen[s]++
		picks = append(picks, s)
	}
	if len(seen) != 3 {
		t.Fatalf("3 picks with no completions should cover all 3 servers, got %v", seen)
	}
	// Complete one; the next pick must go to the freed server.
	l.Done(picks[1])
	if s := l.Pick("k"); s != picks[1] {
		t.Errorf("after Done(%d), Pick = %d, want the freed server", picks[1], s)
	}
	// Done on a bogus index must not panic or corrupt state.
	l.Done(-1)
	l.Done(99)
}

func TestPowerOfTwoSeedReproducible(t *testing.T) {
	a, b := NewPowerOfTwo(8, 1), NewPowerOfTwo(8, 1)
	for i := 0; i < 200; i++ {
		if x, y := a.Pick("k"), b.Pick("k"); x != y {
			t.Fatalf("pick %d diverged with equal seeds: %d vs %d", i, x, y)
		}
	}
	a.Done(-5) // out-of-range completion is ignored
}

func TestRoundRobinConcurrent(t *testing.T) {
	rr := NewRoundRobin(4)
	var mu sync.Mutex
	counts := make([]int, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := rr.Pick(fmt.Sprintf("k%d", i))
				mu.Lock()
				counts[s]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for s, c := range counts {
		if c != 200 {
			t.Errorf("server %d got %d of 800 requests, want exactly 200", s, c)
		}
	}
}
