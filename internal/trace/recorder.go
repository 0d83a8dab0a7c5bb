package trace

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Defaults for New when Config fields are zero.
const (
	DefaultCapacity = 4096 // ring slots
	DefaultPins     = 32   // concurrently pinned slow traces
	DefaultPinSpans = 256  // spans retained per pinned trace
)

// Config sizes a Recorder. Zero fields take the defaults above.
type Config struct {
	Node     string // identity stamped on every span this recorder starts
	Capacity int    // ring capacity, rounded up to a power of two; allocated on the first span
	Pins     int    // max concurrently pinned (tail-promoted) traces
	PinSpans int    // max spans kept per pinned trace
}

// Recorder is a per-node span sink: a fixed-capacity lock-free ring
// (overwrite-oldest) for sampled spans, plus a small pin table holding
// tail-promoted slow traces so they survive ring wraparound.
//
// The record path is wait-free in the common case: one atomic load of
// the ring, one atomic add to claim a slot, a CAS to mark it busy, a
// struct copy, one atomic store to publish. A writer lapped onto a slot
// still being written spins briefly and then drops the span (counted)
// rather than block. The ring is allocated by the first span written to
// it, so a node that never records one never holds it.
type Recorder struct {
	enabled     atomic.Bool
	sampleEvery atomic.Int64 // head-sample 1 in N new traces; 0 = never
	sampleSeq   atomic.Uint64
	slowNs      atomic.Int64           // tail-promotion threshold; 0 = off
	node        atomic.Pointer[string] // identity for spans started here

	mask     uint64
	ring     atomic.Pointer[[]ringSlot] // nil until the first span is written
	ringInit sync.Once
	head     atomic.Uint64

	recorded   atomic.Uint64 // spans published (ring or pin)
	dropped    atomic.Uint64 // spans lost to lap contention or pin overflow
	promoted   atomic.Uint64 // traces tail-promoted into the pin table
	pinEvicted atomic.Uint64 // pinned traces evicted for a newer slow trace

	// pinIDs mirrors pins[i].id so the hot path can probe membership
	// without taking pinMu; pinCount==0 short-circuits even the probe.
	pinCount atomic.Int64
	pinIDs   []atomic.Uint64
	pinMu    sync.Mutex
	pins     []pinSlot
	pinSeq   uint64 // monotonic promotion order, drives FIFO eviction
	pinSpans int
}

// ringSlot is a seqlock cell: seq==0 empty, odd mid-write, even
// published. Writers CAS even→odd to claim, publish with seq+2.
type ringSlot struct {
	seq  atomic.Uint64
	span Span
}

type pinSlot struct {
	id    uint64
	seq   uint64
	spans []Span
}

// New builds a Recorder. Tracing starts disabled; flip it on with
// SetEnabled (origination) — foreign contexts arriving over the wire
// are honored regardless, so a backend needs no enablement to record.
func New(cfg Config) *Recorder {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	// Round up to a power of two so slot selection is a mask.
	n := 1
	for n < capacity {
		n <<= 1
	}
	pins := cfg.Pins
	if pins <= 0 {
		pins = DefaultPins
	}
	pinSpans := cfg.PinSpans
	if pinSpans <= 0 {
		pinSpans = DefaultPinSpans
	}
	r := &Recorder{
		mask:     uint64(n - 1),
		pinIDs:   make([]atomic.Uint64, pins),
		pins:     make([]pinSlot, pins),
		pinSpans: pinSpans,
	}
	node := cfg.Node
	r.node.Store(&node)
	return r
}

var defaultRecorder = New(Config{})

// Default returns the process-wide recorder. Components that are not
// handed an explicit Recorder fall back to it.
func Default() *Recorder { return defaultRecorder }

// SetEnabled turns trace origination on or off. Disabled is the
// default: NewTrace returns the zero Context and nothing records.
func (r *Recorder) SetEnabled(on bool) { r.enabled.Store(on) }

// SetNode sets the identity stamped on spans this recorder starts.
func (r *Recorder) SetNode(node string) { r.node.Store(&node) }

// SetSampleEvery head-samples 1 in n new traces; n<=0 disables head
// sampling (tail promotion still captures slow traces).
func (r *Recorder) SetSampleEvery(n int) { r.sampleEvery.Store(int64(n)) }

// SetSlowThreshold sets the tail-promotion threshold: any span at or
// over d pins its whole trace. d<=0 disables tail promotion.
func (r *Recorder) SetSlowThreshold(d time.Duration) { r.slowNs.Store(int64(d)) }

// NewTrace mints a trace context for a new operation, applying the
// head-sampling decision. Returns the zero Context while disabled.
func (r *Recorder) NewTrace() Context {
	if r == nil || !r.enabled.Load() {
		return Context{}
	}
	ctx := Context{TraceID: newID()}
	if n := r.sampleEvery.Load(); n > 0 && r.sampleSeq.Add(1)%uint64(n) == 0 {
		ctx.Flags |= FlagSampled
	}
	return ctx
}

// Active is an in-flight span. It is a plain value — keep it on the
// stack, call Finish exactly once. The zero Active (from an invalid
// context) is inert: Finish is a no-op and never reads the clock.
type Active struct {
	S     Span
	flags uint8
	t0    time.Time
	rec   *Recorder
}

// StartSpan opens a child span of ctx. With an invalid context it
// returns the inert zero Active without touching the clock.
func (r *Recorder) StartSpan(ctx Context, kind Kind, op string) Active {
	if r == nil || !ctx.Valid() {
		return Active{}
	}
	t0 := time.Now()
	return Active{
		S: Span{
			TraceID: ctx.TraceID,
			ID:      newID(),
			Parent:  ctx.SpanID,
			Start:   t0.UnixNano(),
			Bucket:  -1,
			Kind:    kind,
			Op:      op,
			Node:    *r.node.Load(),
		},
		flags: ctx.Flags,
		t0:    t0,
		rec:   r,
	}
}

// Live reports whether the span will record on Finish-eligible paths
// (i.e. was started from a valid context).
func (a *Active) Live() bool { return a.rec != nil }

// Context returns the propagation context for work done under this
// span: same trace, this span as parent.
func (a *Active) Context() Context {
	if a.rec == nil {
		return Context{}
	}
	return Context{TraceID: a.S.TraceID, SpanID: a.S.ID, Flags: a.flags}
}

// Finish stamps the duration and records the span if the trace is
// head-sampled, tail-promoted (this span crossed the slow threshold),
// or already pinned. Otherwise the span evaporates: no allocation,
// no ring traffic.
func (a *Active) Finish() {
	if a.rec == nil {
		return
	}
	a.S.Dur = int64(time.Since(a.t0))
	a.rec.record(a.S, a.flags)
}

func (r *Recorder) record(s Span, flags uint8) {
	if t := r.slowNs.Load(); t > 0 && s.Dur >= t {
		r.promote(s)
		return
	}
	if r.pinCount.Load() > 0 && r.pinnedProbe(s.TraceID) {
		if r.appendPinned(s) {
			return
		}
		// Evicted between probe and lock: fall through to sampling.
	}
	if flags&FlagSampled != 0 {
		r.write(s)
	}
}

// write publishes a span into the ring, overwrite-oldest. A writer
// lapped onto a mid-write slot spins briefly, then drops the span —
// overwrite-oldest semantics make dropping the contended slot's
// predecessor acceptable, and it keeps the path wait-bounded. The first
// write allocates the ring.
func (r *Recorder) write(s Span) {
	ring := r.ring.Load()
	if ring == nil {
		r.ringInit.Do(func() {
			ring := make([]ringSlot, r.mask+1)
			r.ring.Store(&ring)
		})
		ring = r.ring.Load()
	}
	slot := &(*ring)[(r.head.Add(1)-1)&r.mask]
	for spin := 0; ; spin++ {
		seq := slot.seq.Load()
		if seq&1 == 0 && slot.seq.CompareAndSwap(seq, seq+1) {
			slot.span = s
			slot.seq.Store(seq + 2)
			r.recorded.Add(1)
			return
		}
		if spin >= 16 {
			r.dropped.Add(1)
			return
		}
	}
}

// pinnedProbe is the lock-free membership check used on the record
// path; pinMu-holding writers keep pinIDs coherent with pins.
func (r *Recorder) pinnedProbe(traceID uint64) bool {
	for i := range r.pinIDs {
		if r.pinIDs[i].Load() == traceID {
			return true
		}
	}
	return false
}

// promote pins a slow span's whole trace: it claims (or reuses) a pin
// slot, pulls the trace's earlier spans out of the ring before they
// can wrap away, and appends the slow span itself. Slow path only —
// the mutex never appears on the unsampled fast path.
func (r *Recorder) promote(s Span) {
	r.pinMu.Lock()
	defer r.pinMu.Unlock()
	if i := r.pinIndexLocked(s.TraceID); i >= 0 {
		r.count(r.pinLocked(i, s))
		return
	}
	idx, free := -1, false
	for i := range r.pins {
		if r.pins[i].id == 0 {
			idx, free = i, true
			break
		}
		if idx < 0 || r.pins[i].seq < r.pins[idx].seq {
			idx = i
		}
	}
	p := &r.pins[idx]
	if !free {
		r.pinEvicted.Add(1)
	} else {
		r.pinCount.Add(1)
	}
	p.id = s.TraceID
	p.seq = r.pinSeq
	r.pinSeq++
	p.spans = p.spans[:0]
	r.pinIDs[idx].Store(s.TraceID)
	// The earlier spans were counted when they entered the ring, which
	// still holds them: copied or not, they are not counted again.
	for _, prior := range r.snapshotRing(s.TraceID) {
		r.pinLocked(idx, prior)
	}
	r.count(r.pinLocked(idx, s))
	r.promoted.Add(1)
}

// appendPinned adds a span to its trace's pin slot; false if the
// trace was evicted between the lock-free probe and the lock.
func (r *Recorder) appendPinned(s Span) bool {
	r.pinMu.Lock()
	defer r.pinMu.Unlock()
	i := r.pinIndexLocked(s.TraceID)
	if i < 0 {
		return false
	}
	r.count(r.pinLocked(i, s))
	return true
}

func (r *Recorder) pinIndexLocked(traceID uint64) int {
	for i := range r.pins {
		if r.pins[i].id == traceID {
			return i
		}
	}
	return -1
}

// pinLocked stores s in pin slot i and reports whether the slot now
// holds it; false means the slot is full.
func (r *Recorder) pinLocked(i int, s Span) bool {
	p := &r.pins[i]
	for j := range p.spans {
		if p.spans[j].ID == s.ID {
			return true // promote copied it from the ring already
		}
	}
	if len(p.spans) >= r.pinSpans {
		return false
	}
	p.spans = append(p.spans, s)
	return true
}

// count books the outcome of a span record sent to a pin: published,
// or dropped. A span is counted once, here or in write.
func (r *Recorder) count(published bool) {
	if published {
		r.recorded.Add(1)
	} else {
		r.dropped.Add(1)
	}
}

// snapshotRing copies published spans out of the ring, optionally
// filtered by trace ID (0 = all). A reader claims each slot with the
// same even→odd CAS the writers use, so the span copy is always
// exclusive — no unsynchronized read of a slot mid-write — and then
// restores the sequence unchanged, which a concurrent writer cannot
// distinguish from never having looked. Contended slots retry a few
// times, then are skipped: the snapshot is a query path, losing one
// in-flight span to contention is fine. A ring no span has been
// written to yet is empty.
func (r *Recorder) snapshotRing(traceID uint64) []Span {
	ring := r.ring.Load()
	if ring == nil {
		return nil
	}
	out := make([]Span, 0, 64)
	for i := range *ring {
		slot := &(*ring)[i]
		for attempt := 0; attempt < 4; attempt++ {
			seq := slot.seq.Load()
			if seq == 0 {
				break
			}
			if seq&1 == 1 || !slot.seq.CompareAndSwap(seq, seq+1) {
				continue // mid-write or lost the claim; retry
			}
			s := slot.span
			slot.seq.Store(seq)
			if traceID == 0 || s.TraceID == traceID {
				out = append(out, s)
			}
			break
		}
	}
	return out
}

// Spans returns every span currently held — ring plus pinned traces —
// deduplicated by span ID (promotion copies ring spans into pins).
func (r *Recorder) Spans() []Span {
	return dedupe(append(r.snapshotRing(0), r.SlowSpans()...))
}

// TraceSpans returns this node's spans for one trace.
func (r *Recorder) TraceSpans(traceID uint64) []Span {
	if traceID == 0 {
		return nil
	}
	spans := r.snapshotRing(traceID)
	r.pinMu.Lock()
	if i := r.pinIndexLocked(traceID); i >= 0 {
		spans = append(spans, r.pins[i].spans...)
	}
	r.pinMu.Unlock()
	return dedupe(spans)
}

// SlowSpans returns the spans of every pinned (tail-promoted) trace.
func (r *Recorder) SlowSpans() []Span {
	r.pinMu.Lock()
	defer r.pinMu.Unlock()
	var out []Span
	for i := range r.pins {
		if r.pins[i].id != 0 {
			out = append(out, r.pins[i].spans...)
		}
	}
	return out
}

func dedupe(spans []Span) []Span {
	if len(spans) < 2 {
		return spans
	}
	seen := make(map[uint64]struct{}, len(spans))
	out := spans[:0]
	for _, s := range spans {
		if _, dup := seen[s.ID]; dup {
			continue
		}
		seen[s.ID] = struct{}{}
		out = append(out, s)
	}
	return out
}

// Stats is a point-in-time census of recorder activity.
type Stats struct {
	Recorded   uint64 // spans published (ring or pin)
	Dropped    uint64 // spans lost to lap contention or pin overflow
	Promoted   uint64 // traces tail-promoted
	PinEvicted uint64 // pinned traces evicted by newer slow traces
	Pinned     int    // traces currently pinned
	RingBytes  int64  // the span ring's memory: 0 until the first span is written
}

// Stats returns recorder counters; cheap enough to poll as gauges.
func (r *Recorder) Stats() Stats {
	st := Stats{
		Recorded:   r.recorded.Load(),
		Dropped:    r.dropped.Load(),
		Promoted:   r.promoted.Load(),
		PinEvicted: r.pinEvicted.Load(),
		Pinned:     int(r.pinCount.Load()),
	}
	if ring := r.ring.Load(); ring != nil {
		st.RingBytes = int64(len(*ring)) * int64(unsafe.Sizeof(ringSlot{}))
	}
	return st
}
