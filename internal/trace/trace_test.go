package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestIDsAndContext(t *testing.T) {
	seen := make(map[uint64]struct{})
	for i := 0; i < 10000; i++ {
		id := newID()
		if id == 0 {
			t.Fatal("newID returned 0")
		}
		if _, dup := seen[id]; dup {
			t.Fatalf("newID collision at %d", i)
		}
		seen[id] = struct{}{}
	}
	var zero Context
	if zero.Valid() || zero.Sampled() {
		t.Fatal("zero Context must be invalid and unsampled")
	}
	c := Context{TraceID: 1, Flags: FlagSampled}
	if !c.Valid() || !c.Sampled() {
		t.Fatal("context validity/sampling misreported")
	}
}

func TestDisabledRecorderIsInert(t *testing.T) {
	r := New(Config{Node: "n1"})
	if ctx := r.NewTrace(); ctx.Valid() {
		t.Fatal("disabled recorder minted a trace")
	}
	a := r.StartSpan(Context{}, KindOp, "set")
	if a.Live() {
		t.Fatal("invalid context produced a live span")
	}
	a.Finish() // must be a no-op
	if s := r.Stats(); s.Recorded != 0 || s.Dropped != 0 {
		t.Fatalf("inert path recorded: %+v", s)
	}
	if got := len(r.Spans()); got != 0 {
		t.Fatalf("expected empty recorder, got %d spans", got)
	}
	// A nil recorder is likewise inert, so call sites need no guards.
	var nilRec *Recorder
	if nilRec.NewTrace().Valid() {
		t.Fatal("nil recorder minted a trace")
	}
	na := nilRec.StartSpan(Context{TraceID: 1}, KindOp, "x")
	na.Finish()
}

func TestHeadSampling(t *testing.T) {
	r := New(Config{})
	r.SetEnabled(true)
	r.SetSampleEvery(2)
	sampled := 0
	for i := 0; i < 1000; i++ {
		ctx := r.NewTrace()
		if !ctx.Valid() {
			t.Fatal("enabled recorder returned invalid context")
		}
		if ctx.Sampled() {
			sampled++
		}
	}
	if sampled != 500 {
		t.Fatalf("1-in-2 sampling gave %d/1000", sampled)
	}
	r.SetSampleEvery(0)
	for i := 0; i < 100; i++ {
		if r.NewTrace().Sampled() {
			t.Fatal("sampling disabled but context sampled")
		}
	}
}

func TestUnsampledSpanEvaporates(t *testing.T) {
	r := New(Config{Node: "n1"})
	r.SetEnabled(true) // sample-every 0: traces valid but unsampled
	ctx := r.NewTrace()
	a := r.StartSpan(ctx, KindServer, "SETV")
	a.Finish()
	if s := r.Stats(); s.Recorded != 0 || s.Dropped != 0 {
		t.Fatalf("unsampled span left a mark: %+v", s)
	}
	if got := len(r.Spans()); got != 0 {
		t.Fatalf("unsampled span persisted: %d spans", got)
	}
	if b := r.Stats().RingBytes; b != 0 {
		t.Fatalf("unsampled span allocated the ring: %d bytes", b)
	}
}

func TestUnsampledPathAllocsZero(t *testing.T) {
	r := New(Config{Node: "n1"})
	r.SetEnabled(true)
	ctx := r.NewTrace()
	allocs := testing.AllocsPerRun(200, func() {
		a := r.StartSpan(ctx, KindServer, "SETV")
		a.S.Bucket = 7
		a.Finish()
	})
	if allocs != 0 {
		t.Fatalf("unsampled start/finish allocates %.1f/op, want 0", allocs)
	}
}

// synth records a synthetic span directly, bypassing the clock, so
// tests control durations deterministically.
func synth(r *Recorder, traceID, id, parent uint64, dur time.Duration, sampled bool) {
	flags := uint8(0)
	if sampled {
		flags = FlagSampled
	}
	r.record(Span{
		TraceID: traceID, ID: id, Parent: parent,
		Start: int64(id), Dur: int64(dur), Bucket: -1,
		Kind: KindServer, Op: "SETV", Node: r.node,
	}, flags)
}

func TestRingOverwritesOldest(t *testing.T) {
	r := New(Config{Capacity: 8})
	r.SetEnabled(true)
	if b := r.Stats().RingBytes; b != 0 || len(r.Spans()) != 0 {
		t.Fatalf("fresh recorder holds a %d-byte ring", b)
	}
	for i := 1; i <= 20; i++ {
		synth(r, uint64(i), uint64(i), 0, time.Microsecond, true)
	}
	if b, want := r.Stats().RingBytes, 8*int64(unsafe.Sizeof(ringSlot{})); b != want {
		t.Fatalf("ring of 8 holds %d bytes, want %d", b, want)
	}
	spans := r.Spans()
	if len(spans) != 8 {
		t.Fatalf("ring of 8 holds %d spans", len(spans))
	}
	for _, s := range spans {
		if s.ID <= 12 {
			t.Fatalf("span %d survived; oldest should be overwritten", s.ID)
		}
	}
	if s := r.Stats(); s.Recorded != 20 {
		t.Fatalf("recorded=%d want 20", s.Recorded)
	}
}

func TestTailPromotionPinsSurviveWraparound(t *testing.T) {
	r := New(Config{Capacity: 16})
	r.SetEnabled(true)
	r.SetSlowThreshold(time.Millisecond)

	// A sampled trace lays two fast spans into the ring...
	const slowTrace = 777
	synth(r, slowTrace, 1, 0, time.Microsecond, true)
	synth(r, slowTrace, 2, 1, time.Microsecond, true)
	// ...then a slow span promotes the whole trace into a pin.
	synth(r, slowTrace, 3, 1, 2*time.Millisecond, true)
	if s := r.Stats(); s.Promoted != 1 || s.Pinned != 1 {
		t.Fatalf("promotion stats: %+v", s)
	}
	// A later span of the pinned trace is captured even unsampled.
	synth(r, slowTrace, 4, 3, time.Microsecond, false)

	// Now wrap the ring several times over with unrelated traffic.
	for i := 100; i < 200; i++ {
		synth(r, uint64(i), uint64(i), 0, time.Microsecond, true)
	}

	spans := r.TraceSpans(slowTrace)
	if len(spans) != 4 {
		t.Fatalf("pinned trace has %d spans after wraparound, want 4", len(spans))
	}
	ids := make(map[uint64]bool)
	for _, s := range spans {
		ids[s.ID] = true
	}
	for want := uint64(1); want <= 4; want++ {
		if !ids[want] {
			t.Fatalf("pinned trace lost span %d: have %v", want, ids)
		}
	}
	// Spans() must not double-count the promoted copies.
	seen := make(map[uint64]int)
	for _, s := range r.Spans() {
		seen[s.ID]++
		if seen[s.ID] > 1 {
			t.Fatalf("span %d duplicated in snapshot", s.ID)
		}
	}
	// SlowSpans returns exactly the pinned trace.
	for _, s := range r.SlowSpans() {
		if s.TraceID != slowTrace {
			t.Fatalf("SlowSpans leaked trace %d", s.TraceID)
		}
	}
}

func TestPinEvictionFIFO(t *testing.T) {
	r := New(Config{Capacity: 16, Pins: 2})
	r.SetEnabled(true)
	r.SetSlowThreshold(time.Millisecond)
	synth(r, 10, 1, 0, 2*time.Millisecond, false)
	synth(r, 20, 2, 0, 2*time.Millisecond, false)
	synth(r, 30, 3, 0, 2*time.Millisecond, false) // evicts trace 10
	st := r.Stats()
	if st.Pinned != 2 || st.PinEvicted != 1 || st.Promoted != 3 {
		t.Fatalf("eviction stats: %+v", st)
	}
	if got := len(r.TraceSpans(10)); got != 0 {
		t.Fatalf("evicted trace still has %d pinned spans", got)
	}
	if len(r.TraceSpans(20)) != 1 || len(r.TraceSpans(30)) != 1 {
		t.Fatal("surviving pins lost spans")
	}
}

func TestPinSpanCapCountsDrops(t *testing.T) {
	r := New(Config{Capacity: 16, PinSpans: 3})
	r.SetEnabled(true)
	r.SetSlowThreshold(time.Millisecond)
	synth(r, 5, 1, 0, 2*time.Millisecond, false)
	for i := uint64(2); i <= 6; i++ {
		synth(r, 5, i, 1, time.Microsecond, false)
	}
	if got := len(r.TraceSpans(5)); got != 3 {
		t.Fatalf("pin holds %d spans, cap is 3", got)
	}
	if st := r.Stats(); st.Dropped != 3 {
		t.Fatalf("dropped=%d want 3", st.Dropped)
	}
}

func TestSlowSpanViaRealClock(t *testing.T) {
	r := New(Config{Node: "n1"})
	r.SetEnabled(true)
	r.SetSlowThreshold(2 * time.Millisecond)
	ctx := r.NewTrace() // unsampled: only tail promotion can save it
	a := r.StartSpan(ctx, KindEngine, "merge")
	time.Sleep(5 * time.Millisecond)
	a.Finish()
	spans := r.TraceSpans(ctx.TraceID)
	if len(spans) != 1 {
		t.Fatalf("slow span not promoted: %d spans", len(spans))
	}
	if d := time.Duration(spans[0].Dur); d < 2*time.Millisecond {
		t.Fatalf("span duration %s below threshold", d)
	}
}

// TestRecorderConcurrency is the -race -count=2 hammer: writers,
// promoters, and snapshot readers race while the test demands exact
// span accounting (recorded+dropped == attempts) and fully-formed
// snapshots.
// TestPromotionCountsEachSpanOnce is the deterministic form of the
// overcount TestRecorderConcurrency used to hit under -race: spans
// already in the ring were counted there, and copying them into the
// pin when their trace is promoted may not count them a second time.
func TestPromotionCountsEachSpanOnce(t *testing.T) {
	r := New(Config{Capacity: 64, Pins: 2, PinSpans: 16})
	r.SetEnabled(true)
	r.SetSlowThreshold(time.Millisecond)
	for id := uint64(1); id <= 6; id++ {
		synth(r, 77, id, 0, time.Microsecond, true) // sampled, not yet pinned: the ring
	}
	synth(r, 77, 7, 0, 2*time.Millisecond, false) // slow: promotes trace 77
	if st := r.Stats(); st.Recorded != 7 || st.Dropped != 0 || st.Promoted != 1 {
		t.Fatalf("stats after 7 spans = %+v, want 7 recorded, 0 dropped, 1 promoted", st)
	}
	if got := len(r.SlowSpans()); got != 7 {
		t.Fatalf("pin holds %d spans, want all 7", got)
	}
}

func TestRecorderConcurrency(t *testing.T) {
	r := New(Config{Capacity: 1024, Pins: 8, PinSpans: 64})
	r.SetEnabled(true)
	r.SetSlowThreshold(time.Millisecond)

	const writers = 8
	const perWriter = 5000
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})

	// Snapshot readers race against every writer path.
	for i := 0; i < 2; i++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range r.Spans() {
					if s.TraceID == 0 || s.ID == 0 {
						panic("torn span escaped snapshot")
					}
				}
				r.TraceSpans(42)
				r.SlowSpans()
			}
		}()
	}

	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w*perWriter+i) + 1
				switch {
				case i%997 == 0:
					// Slow span: promotes its trace.
					synth(r, uint64(w)+1000, id, 0, 2*time.Millisecond, false)
				case i%31 == 0:
					// Span of a (probably) pinned trace.
					synth(r, uint64(w)+1000, id, 0, time.Microsecond, false)
				default:
					synth(r, id, id, 0, time.Microsecond, true)
				}
			}
		}(w)
	}

	writeWG.Wait()
	close(stop)
	readWG.Wait()

	st := r.Stats()
	// Exact accounting: every attempted span was either published
	// (ring or pin) or counted as dropped. Spans of pinned traces
	// that lost the probe/lock race fall back to the sampled path;
	// the unsampled ones among them evaporate by design, so the
	// invariant is recorded+dropped <= attempts with equality when
	// no pin raced — and the sampled-only sub-stream is exact:
	attempts := uint64(writers * perWriter)
	if st.Recorded+st.Dropped > attempts {
		t.Fatalf("overcounted: recorded=%d dropped=%d attempts=%d", st.Recorded, st.Dropped, attempts)
	}
	// The default-path spans (sampled, unique trace IDs) are exact:
	// none can fall into a pin, so each is recorded or dropped.
	if st.Recorded+st.Dropped == 0 {
		t.Fatal("nothing recorded at all")
	}
	if st.Promoted == 0 || st.Pinned == 0 {
		t.Fatalf("promotion never happened under load: %+v", st)
	}
	// Snapshot sanity after the dust settles.
	for _, s := range r.Spans() {
		if s.TraceID == 0 || s.ID == 0 || s.Op == "" {
			t.Fatalf("malformed span in final snapshot: %+v", s)
		}
	}
}

// TestRecorderConcurrencyExactAccounting isolates the pure ring path
// (no pins, all sampled, distinct traces) where accounting must be
// exactly recorded+dropped == attempts.
func TestRecorderConcurrencyExactAccounting(t *testing.T) {
	r := New(Config{Capacity: 256})
	r.SetEnabled(true)
	const writers = 8
	const perWriter = 10000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w*perWriter+i) + 1
				synth(r, id, id, 0, time.Microsecond, true)
			}
		}(w)
	}
	wg.Wait()
	st := r.Stats()
	if got := st.Recorded + st.Dropped; got != writers*perWriter {
		t.Fatalf("recorded=%d + dropped=%d != attempts=%d", st.Recorded, st.Dropped, writers*perWriter)
	}
	if len(r.Spans()) > 256 {
		t.Fatalf("snapshot exceeds capacity: %d", len(r.Spans()))
	}
}

func TestSpanCodecRoundTrip(t *testing.T) {
	in := []Span{
		{TraceID: 1, ID: 2, Parent: 0, Start: 1000, Dur: 50, Wait: 7, Bucket: 42,
			Kind: KindOp, Err: false, Op: "set", Node: "127.0.0.1:7001", Peer: ""},
		{TraceID: 1, ID: 3, Parent: 2, Start: 1010, Dur: 40, Wait: 0, Bucket: -1,
			Kind: KindRPC, Err: true, Op: "SETV", Node: "coord", Peer: "127.0.0.1:7002"},
		{TraceID: 9, ID: 4, Start: -5, Dur: 0, Bucket: -1, Kind: KindAE, Op: "päss", Node: "n"},
	}
	out, err := DecodeSpans(EncodeSpans(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("span %d: %+v != %+v", i, in[i], out[i])
		}
	}
	if got, err := DecodeSpans(EncodeSpans(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty round-trip: %v %v", got, err)
	}
}

func TestSpanCodecRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"truncated header": {0, 0, 1},
		"count over body":  {0, 0, 0, 99, 1, 2, 3},
		"trailing bytes":   append(EncodeSpans([]Span{{TraceID: 1, ID: 1}}), 0xFF),
		"truncated span":   EncodeSpans([]Span{{TraceID: 1, ID: 1}})[:20],
	}
	for name, b := range cases {
		if _, err := DecodeSpans(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Oversized string length.
	b := EncodeSpans([]Span{{TraceID: 1, ID: 1, Op: "x"}})
	b[4+spanFixedSize] = 0xFF // opLen high byte → 65xxx
	b[4+spanFixedSize+1] = 0xFF
	if _, err := DecodeSpans(b); err == nil {
		t.Error("oversized string length decoded without error")
	}
}

func TestAssembleAndWaterfall(t *testing.T) {
	spans := []Span{
		{TraceID: 7, ID: 1, Parent: 0, Start: 1000, Dur: 900, Kind: KindOp, Op: "set", Node: "coord"},
		{TraceID: 7, ID: 2, Parent: 1, Start: 1100, Dur: 600, Kind: KindRPC, Op: "SETV", Node: "coord", Peer: "b1"},
		{TraceID: 7, ID: 3, Parent: 2, Start: 1200, Dur: 400, Wait: 50, Kind: KindServer, Op: "SETV", Node: "b1"},
		{TraceID: 7, ID: 4, Parent: 3, Start: 1250, Dur: 100, Bucket: 12, Kind: KindEngine, Op: "merge", Node: "b1"},
		{TraceID: 7, ID: 9, Parent: 777, Start: 1500, Dur: 10, Kind: KindHint, Op: "replay", Node: "b2"}, // orphan
		{TraceID: 7, ID: 3, Parent: 2, Start: 1200, Dur: 400, Kind: KindServer, Op: "SETV", Node: "b1"},  // duplicate
		{TraceID: 8, ID: 20, Parent: 0, Start: 500, Dur: 5, Kind: KindOp, Op: "get", Node: "coord"},
	}
	trees := Assemble(spans)
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want 2", len(trees))
	}
	if trees[0].TraceID != 8 {
		t.Fatalf("trees not start-ordered: first is %d", trees[0].TraceID)
	}
	tr := trees[1]
	if tr.Len() != 5 {
		t.Fatalf("trace 7 has %d spans, want 5 (dedup)", tr.Len())
	}
	if len(tr.Roots) != 2 {
		t.Fatalf("trace 7 has %d roots, want 2 (op + orphan)", len(tr.Roots))
	}
	if tr.Roots[0].Span.ID != 1 || tr.Roots[1].Span.ID != 9 {
		t.Fatalf("root order wrong: %d, %d", tr.Roots[0].Span.ID, tr.Roots[1].Span.ID)
	}
	// Chain 1→2→3→4 intact.
	n := tr.Roots[0]
	for _, want := range []uint64{1, 2, 3, 4} {
		if n.Span.ID != want {
			t.Fatalf("chain broken: got %d want %d", n.Span.ID, want)
		}
		if want != 4 {
			if len(n.Children) != 1 {
				t.Fatalf("span %d has %d children", want, len(n.Children))
			}
			n = n.Children[0]
		}
	}
	if got := tr.Nodes(); len(got) != 3 {
		t.Fatalf("nodes=%v want 3 distinct", got)
	}
	if tr.Duration() != time.Duration(1900-1000) {
		t.Fatalf("duration=%s", tr.Duration())
	}
	var sb strings.Builder
	tr.Waterfall(&sb)
	out := sb.String()
	for _, want := range []string{"trace 0000000000000007", "spans=5", "nodes=3",
		"op set @coord", "rpc SETV @coord ->b1", "server SETV @b1 wait=50ns",
		"engine merge @b1 bucket=12", "hint replay @b2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 6 {
		t.Fatalf("waterfall has %d lines, want 6:\n%s", lines, out)
	}
}

func TestFindAndKindStrings(t *testing.T) {
	trees := Assemble([]Span{
		{TraceID: 1, ID: 1, Kind: KindOp, Op: "get", Start: 10, Dur: 5},
		{TraceID: 1, ID: 2, Parent: 1, Kind: KindRepair, Op: "MERGE", Start: 12, Dur: 2},
	})
	if len(trees) != 1 {
		t.Fatal("assemble failed")
	}
	s, ok := trees[0].Find(func(s Span) bool { return s.Kind == KindRepair })
	if !ok || s.ID != 2 {
		t.Fatalf("Find repair span: %v %v", s, ok)
	}
	if _, ok := trees[0].Find(func(s Span) bool { return s.Kind == KindHint }); ok {
		t.Fatal("Find matched nothing")
	}
	for k := KindUnknown; k <= KindAE; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty string", k)
		}
	}
	if KindAE.String() != "antientropy" || Kind(99).String() != "unknown" {
		t.Fatal("kind strings wrong")
	}
}
