package obs

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// stripe is one cell of a striped counter, padded out to its own
// 128-byte span (two 64-byte lines: the adjacent-line prefetcher pulls
// pairs) so two cores hammering neighboring stripes never false-share.
type stripe struct {
	n atomic.Uint64
	_ [120]byte
}

// Counter is a monotonic event count, safe for any number of
// concurrent writers. Increments are striped across
// cache-line-padded cells — one per CPU, roughly — so parallel writers
// on different cores each own a line instead of bouncing one hot
// atomic between caches. Reads fold the stripes, which makes Value a
// little more expensive than a single load; counters are written
// millions of times and read once a scrape, so that is the right
// trade.
//
// The zero value is NOT usable; create counters with NewCounter or
// Registry.Counter.
type Counter struct {
	stripes []stripe
	mask    uint32
}

// counterStripes is the stripe count: GOMAXPROCS at package init,
// rounded up to a power of two (so picking a stripe is a mask, not a
// mod), capped to keep a counter's footprint bounded on huge machines.
var counterStripes = func() uint32 {
	n := runtime.GOMAXPROCS(0)
	pow := 1
	for pow < n {
		pow <<= 1
	}
	if pow > 64 {
		pow = 64
	}
	return uint32(pow)
}()

// NewCounter creates a counter outside any registry; Registry.Counter
// creates one under a name that snapshots report.
func NewCounter() *Counter {
	return &Counter{stripes: make([]stripe, counterStripes), mask: counterStripes - 1}
}

// stripeIdx picks the calling goroutine's stripe. Go does not expose
// the current CPU, so the next-best cheap discriminator is the
// goroutine's stack: the address of a local spreads goroutines across
// stripes (each goroutine's stack is its own allocation) for the cost
// of a hash, no syscall, no allocation. Two goroutines may collide on
// a stripe — that is contention, not corruption.
func stripeIdx() uint32 {
	var b byte
	p := uintptr(unsafe.Pointer(&b))
	return uint32(uint64(p>>6) * 0x9E3779B97F4A7C15 >> 56)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. When recording is disabled it is a load and a branch.
func (c *Counter) Add(n uint64) {
	if !enabled.Load() {
		return
	}
	c.stripes[stripeIdx()&c.mask].n.Add(n)
}

// Value folds the stripes into the total. Concurrent with writers it
// is a lower bound of "now" and an upper bound of "when the fold
// started" — exactly what a monotonic counter scrape needs.
func (c *Counter) Value() uint64 {
	var sum uint64
	for i := range c.stripes {
		sum += c.stripes[i].n.Load()
	}
	return sum
}

// StartTimer returns the wall clock when recording is enabled and the
// zero Time when it is not — the convention Histogram.ObserveSince
// understands, so timing an operation is two lines that cost nothing
// when metrics are off:
//
//	start := obs.StartTimer()
//	defer latencyHist.ObserveSince(start)
func StartTimer() time.Time {
	if !enabled.Load() {
		return time.Time{}
	}
	return time.Now()
}
