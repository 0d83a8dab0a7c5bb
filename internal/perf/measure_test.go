package perf

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMeasureCountsExecutions(t *testing.T) {
	var calls int64
	opt := Options{Warmup: 2, Repetitions: 5}
	s := Measure(func() { atomic.AddInt64(&calls, 1) }, opt)
	if s.N() != 5 {
		t.Errorf("sample N = %d, want 5", s.N())
	}
	if calls != 7 { // 2 warmup + 5 timed
		t.Errorf("calls = %d, want 7", calls)
	}
}

// TestMeasureMinTime holds Measure to its adaptive contract rather than
// to a count of sleeps, which the scheduler can stretch: the samples sum
// to at least MinTime, and the loop stops at the first sample that
// crosses it.
func TestMeasureMinTime(t *testing.T) {
	var calls int
	opt := Options{Repetitions: 1, MinTime: 5 * time.Millisecond, MaxRepetitions: 100000}
	s := Measure(func() {
		calls++
		time.Sleep(time.Millisecond)
	}, opt)
	if calls != s.N() {
		t.Fatalf("%d calls for %d samples", calls, s.N())
	}
	var total time.Duration
	for i, v := range s.Values() {
		if total >= opt.MinTime {
			t.Fatalf("sample %d of %d taken after the samples already summed to %v", i+1, s.N(), total)
		}
		total += time.Duration(math.Round(v * 1e9))
	}
	if total < opt.MinTime {
		t.Fatalf("%d samples sum to %v, want at least MinTime %v", s.N(), total, opt.MinTime)
	}
}

func TestMeasureDefaultsRepair(t *testing.T) {
	s := Measure(func() {}, Options{Repetitions: 0})
	if s.N() != 1 {
		t.Errorf("zero repetitions should clamp to 1, got %d", s.N())
	}
}

func TestCompare(t *testing.T) {
	// Wide gap and loose threshold: scheduler jitter on a loaded
	// single-core host can stretch the fast case by milliseconds.
	slow := func() { time.Sleep(10 * time.Millisecond) }
	fast := func() { time.Sleep(time.Millisecond) }
	r := Compare(slow, fast, Options{Warmup: 1, Repetitions: 4})
	if r.Speedup < 1.5 {
		t.Errorf("expected a clear speedup, got %.2f", r.Speedup)
	}
	if !strings.Contains(r.String(), "speedup") {
		t.Errorf("String() = %q", r.String())
	}
}

func TestStrongScalingDriver(t *testing.T) {
	work := func(p int) { time.Sleep(time.Duration(4/p) * time.Millisecond) }
	c := StrongScaling("sleepy", []int{1, 2, 4}, work, Options{Repetitions: 2})
	if len(c.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(c.Points))
	}
	if c.Points[0].P != 1 || c.Points[2].P != 4 {
		t.Errorf("points out of order: %+v", c.Points)
	}
}

func TestWeakScalingDriver(t *testing.T) {
	pts := WeakScaling([]int{1, 2}, func(p int) { time.Sleep(time.Millisecond) }, Options{Repetitions: 2})
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	if pts[0].Efficiency != 1 {
		t.Errorf("first efficiency = %g, want 1", pts[0].Efficiency)
	}
	if pts[1].Efficiency <= 0 {
		t.Errorf("second efficiency = %g, want > 0", pts[1].Efficiency)
	}
}
