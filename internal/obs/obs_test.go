package obs

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	c := NewCounter()
	if v := c.Value(); v != 0 {
		t.Fatalf("fresh counter = %d, want 0", v)
	}
	c.Inc()
	c.Add(41)
	if v := c.Value(); v != 42 {
		t.Fatalf("after Inc+Add(41) = %d, want 42", v)
	}
}

func TestCounterDisabledFreezes(t *testing.T) {
	defer SetEnabled(true)
	c := NewCounter()
	c.Add(5)
	SetEnabled(false)
	c.Add(100)
	if v := c.Value(); v != 5 {
		t.Fatalf("disabled counter moved: %d, want 5", v)
	}
	SetEnabled(true)
	c.Inc()
	if v := c.Value(); v != 6 {
		t.Fatalf("re-enabled counter = %d, want 6", v)
	}
}

func TestGauge(t *testing.T) {
	g := NewGauge()
	g.Set(7)
	g.Add(-3)
	if v := g.Value(); v != 4 {
		t.Fatalf("gauge = %d, want 4", v)
	}
	g.SetMax(10)
	g.SetMax(2) // lower than current: no effect
	if v := g.Value(); v != 10 {
		t.Fatalf("after SetMax = %d, want 10", v)
	}
}

func TestStartTimerDisabled(t *testing.T) {
	defer SetEnabled(true)
	SetEnabled(false)
	if !StartTimer().IsZero() {
		t.Fatal("StartTimer while disabled should be the zero Time")
	}
	h := NewHistogram()
	h.ObserveSince(time.Time{}) // must be a no-op, not a giant sample
	SetEnabled(true)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("zero-Time ObserveSince recorded %d samples", s.Count)
	}
}

// TestBucketRoundTrip pins the histogram geometry: every value maps to
// a bucket whose bounds contain it, with relative width <= 1/8.
func TestBucketRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 7, 8, 9, 15, 16, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, 1<<63 + 999}
	for _, v := range vals {
		idx := bucketIdx(v)
		lo, hi := bucketBounds(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d mapped to bucket %d [%d, %d]", v, idx, lo, hi)
		}
		if width := hi - lo; v >= histSubBuckets && width > v/histSubBuckets+1 {
			t.Fatalf("bucket %d width %d too coarse for value %d", idx, width, v)
		}
	}
	// Bucket indexes are monotone in the value.
	prev := -1
	for v := uint64(0); v < 4096; v++ {
		idx := bucketIdx(v)
		if idx < prev {
			t.Fatalf("bucketIdx not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
	if got := bucketIdx(^uint64(0)); got != histBuckets-1 {
		t.Fatalf("max uint64 in bucket %d, want last bucket %d", got, histBuckets-1)
	}
}

// TestHistogramPercentileAccuracy checks Quantile against a sorted-
// slice reference: for log-bucketed storage the reported quantile must
// be within the bucket's 12.5% relative error of the true one (plus
// the max clamp, which can only tighten it).
func TestHistogramPercentileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewHistogram()
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// A latency-shaped distribution: lognormal-ish body, heavy tail.
		v := int64(500 * (1 + rng.ExpFloat64()*10))
		if rng.Intn(100) == 0 {
			v *= 50 // tail spikes
		}
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	snap := h.Snapshot()
	if snap.Count != uint64(len(samples)) {
		t.Fatalf("count %d, want %d", snap.Count, len(samples))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
		rank := int(q*float64(len(samples))) - 1
		if rank < 0 {
			rank = 0
		}
		truth := uint64(samples[rank])
		got := snap.Quantile(q)
		// The bucket containing the true quantile spans at most 12.5%
		// relative width; allow a little slack for rank-vs-ceil edges.
		lo, hi := truth-truth/6, truth+truth/6
		if got < lo || got > hi {
			t.Errorf("q%.3f = %d, true %d (allowed [%d, %d])", q, got, truth, lo, hi)
		}
	}
	if max := snap.Quantile(1); max != snap.Max {
		t.Errorf("Quantile(1) = %d, want Max %d", max, snap.Max)
	}
}

// TestConcurrentHammer drives every metric kind from many goroutines
// at once — the -race run proves the lock-free paths are actually
// safe, and the totals prove no increment was lost.
func TestConcurrentHammer(t *testing.T) {
	const goroutines = 16
	const perG = 5000
	c := NewCounter()
	g := NewGauge()
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				g.SetMax(int64(id*perG + j))
				h.Observe(int64(j))
				if j%100 == 0 {
					_ = c.Value()
					_ = h.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	if v := c.Value(); v != goroutines*perG {
		t.Fatalf("counter = %d, want %d", v, goroutines*perG)
	}
	if v := g.Value(); v < goroutines*perG {
		t.Fatalf("gauge = %d, want >= %d (Adds plus SetMax floor)", v, goroutines*perG)
	}
	snap := h.Snapshot()
	if snap.Count != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", snap.Count, goroutines*perG)
	}
	var bucketSum uint64
	for _, b := range snap.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != snap.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, snap.Count)
	}
}

// randomSnapshot builds an arbitrary snapshot for the merge property
// test: a few metrics drawn from a small shared name pool so merges
// actually collide.
func randomSnapshot(rng *rand.Rand) Snapshot {
	names := []string{"a.count", "b.gauge", "c.lat", "d.count", "e.lat"}
	var s Snapshot
	for _, name := range names {
		if rng.Intn(3) == 0 {
			continue // present in some snapshots only
		}
		switch {
		case strings.HasSuffix(name, ".count"):
			s.Metrics = append(s.Metrics, MetricSnapshot{Name: name, Kind: KindCounter, Value: int64(rng.Intn(1000))})
		case strings.HasSuffix(name, ".gauge"):
			s.Metrics = append(s.Metrics, MetricSnapshot{Name: name, Kind: KindGauge, Value: int64(rng.Intn(1000)) - 500})
		default:
			h := NewHistogram()
			for i, n := 0, rng.Intn(50); i < n; i++ {
				h.Observe(int64(rng.Intn(1 << 16)))
			}
			hs := h.Snapshot()
			s.Metrics = append(s.Metrics, MetricSnapshot{Name: name, Kind: KindHistogram, Hist: &hs})
		}
	}
	sort.Slice(s.Metrics, func(i, j int) bool { return s.Metrics[i].Name < s.Metrics[j].Name })
	return s
}

// TestMergeAssociativeCommutative is the property ClusterStats leans
// on: folding node snapshots in any grouping and order yields the same
// cluster totals.
func TestMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a, b, c := randomSnapshot(rng), randomSnapshot(rng), randomSnapshot(rng)
		left := a.Merge(b).Merge(c)
		right := a.Merge(b.Merge(c))
		swapped := c.Merge(b).Merge(a)
		if ls, rs := left.String(), right.String(); ls != rs {
			t.Fatalf("trial %d: (a+b)+c != a+(b+c):\n%s\nvs\n%s", trial, ls, rs)
		}
		if ls, ss := left.String(), swapped.String(); ls != ss {
			t.Fatalf("trial %d: merge not commutative:\n%s\nvs\n%s", trial, ls, ss)
		}
	}
}

// TestMergeIdentity: merging with an empty snapshot changes nothing.
func TestMergeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := randomSnapshot(rng)
	if got := s.Merge(Snapshot{}).String(); got != s.String() {
		t.Fatalf("merge with empty changed the snapshot:\n%s\nvs\n%s", got, s.String())
	}
	if got := (Snapshot{}).Merge(s).String(); got != s.String() {
		t.Fatalf("empty.Merge(s) changed the snapshot:\n%s\nvs\n%s", got, s.String())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		s := randomSnapshot(rng)
		dec, err := DecodeSnapshot(s.Encode())
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if got, want := dec.String(), s.String(); got != want {
			t.Fatalf("trial %d: round trip changed snapshot:\n%s\nvs\n%s", trial, got, want)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	h := NewHistogram()
	h.Observe(123)
	hs := h.Snapshot()
	good := Snapshot{Metrics: []MetricSnapshot{
		{Name: "x.count", Kind: KindCounter, Value: 9},
		{Name: "x.lat", Kind: KindHistogram, Hist: &hs},
	}}.Encode()
	cases := map[string][]byte{
		"empty":          {},
		"bad version":    {99, 0, 0, 0, 0},
		"truncated":      good[:len(good)-3],
		"trailing bytes": append(append([]byte{}, good...), 1, 2, 3),
		"huge count":     {snapshotVersion, 0xFF, 0xFF, 0xFF, 0xFF},
	}
	for name, b := range cases {
		if _, err := DecodeSnapshot(b); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
	if _, err := DecodeSnapshot(good); err != nil {
		t.Fatalf("control: good frame rejected: %v", err)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	if r.Counter("reqs") != c {
		t.Fatal("Counter not idempotent")
	}
	c.Add(3)
	r.Gauge("depth").Set(-2)
	r.Histogram("lat").Observe(1000)
	r.Func("fn", func() int64 { return 77 })

	snap := r.Snapshot()
	names := make([]string, len(snap.Metrics))
	for i, m := range snap.Metrics {
		names[i] = m.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("snapshot not sorted: %v", names)
	}
	check := func(name string, want int64) {
		t.Helper()
		m, ok := snap.Get(name)
		if !ok || m.Value != want {
			t.Fatalf("%s = %+v (ok=%v), want %d", name, m, ok, want)
		}
	}
	check("reqs", 3)
	check("depth", -2)
	check("fn", 77)
	if m, ok := snap.Get("lat"); !ok || m.Hist == nil || m.Hist.Count != 1 {
		t.Fatalf("lat = %+v (ok=%v), want histogram with 1 sample", m, ok)
	}
	if _, ok := snap.Get("absent"); ok {
		t.Fatal("Get found an absent metric")
	}

	// Kind mismatches panic; Func re-registration does not.
	mustPanic := func(fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		fn()
	}
	mustPanic(func() { r.Gauge("reqs") })
	mustPanic(func() { r.Histogram("reqs") })
	mustPanic(func() { r.Func("reqs", func() int64 { return 0 }) })
	r.Func("fn", func() int64 { return 88 }) // last wins, no panic
	if m, _ := r.Snapshot().Get("fn"); m.Value != 88 {
		t.Fatalf("re-registered func gauge = %d, want 88", m.Value)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Histogram("h").Observe(int64(j))
				if j%50 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if m, _ := r.Snapshot().Get("shared"); m.Value != 8000 {
		t.Fatalf("shared counter = %d, want 8000", m.Value)
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(12)
	r.Histogram("lat").Observe(1000)
	text := r.Snapshot().String()
	if !strings.Contains(text, "hits 12\n") {
		t.Errorf("missing counter line:\n%s", text)
	}
	if !strings.Contains(text, "lat count=1 p50=") {
		t.Errorf("missing histogram line:\n%s", text)
	}
}
