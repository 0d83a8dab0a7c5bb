package obs

import (
	"fmt"
	"sort"
	"sync"
)

// entry is one registered metric: exactly one of the typed fields is
// set, per kind.
type entry struct {
	kind Kind
	c    *Counter
	g    *Gauge
	h    *Histogram
	fn   func() int64
}

// Registry names metrics and produces mergeable Snapshots. Lookups are
// get-or-create and guarded by a mutex, which is fine because the hot
// path never goes through the registry: callers resolve their metric
// pointers once (package init, constructor) and record through them
// directly. Registering two different kinds under one name is a
// programming error and panics.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]entry
}

// NewRegistry creates an empty registry. Most code uses Default; a
// private registry is for tests that need isolation from the global
// instrumentation.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]entry)}
}

// defaultRegistry is the process-global registry the built-in
// instrumentation registers into.
var defaultRegistry = NewRegistry()

// Default returns the process-global registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter registered under name, creating it on
// first use. Panics if name is registered as another kind.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[name]; ok {
		if e.kind != KindCounter || e.c == nil {
			panic(fmt.Sprintf("obs: metric %q is a %s, not a counter", name, e.kind))
		}
		return e.c
	}
	c := NewCounter()
	r.metrics[name] = entry{kind: KindCounter, c: c}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Panics if name is registered as another kind.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[name]; ok {
		if e.kind != KindGauge || e.g == nil {
			panic(fmt.Sprintf("obs: metric %q is a %s, not a gauge", name, e.kind))
		}
		return e.g
	}
	g := NewGauge()
	r.metrics[name] = entry{kind: KindGauge, g: g}
	return g
}

// Histogram returns the histogram registered under name, creating it
// on first use. Panics if name is registered as another kind.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[name]; ok {
		if e.kind != KindHistogram || e.h == nil {
			panic(fmt.Sprintf("obs: metric %q is a %s, not a histogram", name, e.kind))
		}
		return e.h
	}
	h := NewHistogram()
	r.metrics[name] = entry{kind: KindHistogram, h: h}
	return h
}

// Func registers a function gauge: fn is called at snapshot time and
// its result reported under name as a gauge. Re-registering the same
// name replaces the function (last wins) — deliberately lenient so
// multi-node tests in one process can each point "store.entries" at
// their own engine without panicking; everything else is strict.
func (r *Registry) Func(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[name]; ok && e.fn == nil {
		panic(fmt.Sprintf("obs: metric %q is a %s, not a func gauge", name, e.kind))
	}
	r.metrics[name] = entry{kind: KindGauge, fn: fn}
}

// Snapshot captures every registered metric's current value, sorted by
// name. Func gauges are invoked here, outside the registry lock's
// critical path concern but inside the lock (snapshots are rare and
// func gauges are cheap reads by contract).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Metrics: make([]MetricSnapshot, 0, len(r.metrics))}
	for name, e := range r.metrics {
		m := MetricSnapshot{Name: name, Kind: e.kind}
		switch {
		case e.c != nil:
			m.Value = int64(e.c.Value())
		case e.g != nil:
			m.Value = e.g.Value()
		case e.h != nil:
			h := e.h.Snapshot()
			m.Hist = &h
		case e.fn != nil:
			m.Value = e.fn()
		}
		s.Metrics = append(s.Metrics, m)
	}
	sort.Slice(s.Metrics, func(i, j int) bool { return s.Metrics[i].Name < s.Metrics[j].Name })
	return s
}
