package csnet

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pdcedu/internal/obs"
	"pdcedu/internal/store"
)

// These tests lean on TestMain's poison-on-release: a buffer the
// transport lets go of too early reads back as 0xDB here.

// aliasFrames answers every frame with the request buffer itself —
// legal under FrameHandler's contract, and the reason a request body
// rides its response frame instead of being released by the worker.
type aliasFrames struct{}

func (aliasFrames) ServeFrame(_, body []byte, _ FrameMeta) []byte { return body }

// startFrames serves fh on loopback and dials one client to it.
func startFrames(t *testing.T, fh FrameHandler) *Client {
	t.Helper()
	srv := NewFrameServer(fh, 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	cl, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// payload is n bytes no other (n, tag) shares and 0xDB never fills.
func payload(n, tag int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + tag)
	}
	return b
}

// TestAliasedReplyPipelined keeps 32 frames in flight against a handler
// whose reply is its request buffer: each must come back intact, which
// it only does if the request buffer outlives the response write.
func TestAliasedReplyPipelined(t *testing.T) {
	cl := startFrames(t, aliasFrames{})
	const depth, rounds = 32, 200
	for r := 0; r < rounds; r++ {
		var pend [depth]*Pending
		for i := range pend {
			pend[i] = cl.SendFrame(payload(1+(r*depth+i)%900, i))
		}
		for i, p := range pend {
			got, err := p.Wait()
			if err != nil {
				t.Fatalf("round %d frame %d: %v", r, i, err)
			}
			if want := payload(1+(r*depth+i)%900, i); !bytes.Equal(got, want) {
				t.Fatalf("round %d frame %d: reply differs from the request it aliased (%d bytes, first %x)", r, i, len(got), got[:min(8, len(got))])
			}
		}
	}
}

// TestEchoSizesInterleaved pipelines OpEcho values from 1 B to 1 MiB —
// below bufMinCap, across the muxBufSize cap, far above it — from
// several goroutines at once, so buffers of every size class are
// recycled under each other's feet.
func TestEchoSizesInterleaved(t *testing.T) {
	srv := NewServer(NewKVHandler(), 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	cl, err := Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sizes := []int{1, 100, bufMinCap - 1, bufMinCap + 1, 4 << 10, muxBufSize - 64, muxBufSize + 1, 1 << 20, 7, 300 << 10}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				calls := make([]*Call, len(sizes))
				for i, n := range sizes {
					// The value is the caller's again once Send returns.
					v := payload(n, g+i)
					calls[i] = cl.Send(Request{Op: OpEcho, Value: v})
					clear(v)
				}
				for i, n := range sizes {
					resp, err := calls[i].Response()
					if err != nil || resp.Status != StatusOK {
						t.Errorf("echo %d B: %v %v", n, resp.Status, err)
						return
					}
					if !bytes.Equal(resp.Value, payload(n, g+i)) {
						t.Errorf("echo %d B came back corrupted", n)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReplySurvivesLaterTraffic holds a value GetV returned across
// 10 000 later round trips on the same connection: a reply body is the
// caller's, so nothing the transport recycles may lie under it.
func TestReplySurvivesLaterTraffic(t *testing.T) {
	srv := NewServer(NewKVHandler(), 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	cl, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	want := payload(200, 3)
	if _, _, err := cl.SetV("held", want, 0); err != nil {
		t.Fatal(err)
	}
	held, ok, err := cl.GetV("held")
	if err != nil || !ok {
		t.Fatalf("GetV = %v %v", ok, err)
	}
	for i := 0; i < 10_000; i++ {
		key := fmt.Sprintf("k%d", i%64)
		if _, _, err := cl.SetV(key, payload(150+i%100, i), 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.GetV(key); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(held.Value, want) {
		t.Fatalf("value held since before the traffic changed under the caller: %x…", held.Value[:8])
	}
	if e, ok, err := cl.GetV("held"); err != nil || !ok || !bytes.Equal(e.Value, want) {
		t.Fatalf("the engine's copy changed too: %v %v", ok, err)
	}
}

// TestPoisonedMidBurst kills the server while senders still have
// frames in the send queue: every call resolves with an error, and the
// buffers stranded in the dead connection are never handed to anyone
// else — traffic on a fresh connection stays intact.
func TestPoisonedMidBurst(t *testing.T) {
	block := make(chan struct{})
	srv := NewServer(HandlerFunc(func(r Request) Response {
		<-block
		return Response{Status: StatusOK, Value: r.Value}
	}), 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const senders, each = 4, 400 // 1600 frames: past the send queue and the server's worker queue
	var wg sync.WaitGroup
	failed := make(chan int, senders)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			calls := make([]*Call, each)
			for i := range calls {
				calls[i] = cl.Send(Request{Op: OpEcho, Value: payload(100+i, g)})
			}
			n := 0
			for _, c := range calls {
				if _, err := c.Response(); err != nil {
					n++
				}
			}
			failed <- n
		}(g)
	}
	time.Sleep(20 * time.Millisecond) // let the queues fill behind the blocked handlers
	done := make(chan struct{})
	go func() { srv.Shutdown(); close(done) }()
	for deadline := time.Now().Add(5 * time.Second); !cl.broken() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(block)
	<-done
	wg.Wait()
	close(failed)
	total := 0
	for n := range failed {
		total += n
	}
	if total == 0 {
		t.Fatal("no call failed although the server died mid-burst")
	}
	echo := startFrames(t, aliasFrames{})
	for i := 0; i < 2000; i++ {
		got, err := echo.SendFrame(payload(100+i%500, i)).Wait()
		if err != nil || !bytes.Equal(got, payload(100+i%500, i)) {
			t.Fatalf("frame %d on a fresh connection after the poisoned burst: %v", i, err)
		}
	}
}

// drainFree empties both classes of the transport's free list and
// returns what they held, small first.
func drainFree() (small, large [][]byte) {
	drain := func(free chan []byte) (bufs [][]byte) {
		for {
			select {
			case b := <-free:
				bufs = append(bufs, b)
			default:
				return bufs
			}
		}
	}
	return drain(freeBufs.small), drain(freeBufs.large)
}

// refill hands drained buffers back to the free list.
func refill(lists ...[][]byte) {
	for _, bufs := range lists {
		for _, b := range bufs {
			putBuf(b)
		}
	}
}

// TestLargeFrameNotKept sends a 1 MiB frame each way and then empties
// the free list: nothing above muxBufSize may have been kept, or one
// large listing would pin its memory for the life of the process.
func TestLargeFrameNotKept(t *testing.T) {
	srv := NewServer(NewKVHandler(), 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	big := payload(1<<20, 1)
	resp, err := cl.Do(Request{Op: OpEcho, Value: big})
	if err != nil || !bytes.Equal(resp.Value, big) {
		t.Fatalf("1 MiB round trip: %v", err)
	}
	// A frame this size goes straight to the socket, so the reply can
	// arrive before its writer gets to the release: wait the server's
	// goroutines out before looking.
	cl.Close()
	srv.Shutdown()
	small, large := drainFree()
	if len(small)+len(large) == 0 {
		t.Fatal("the free list is empty after a round trip: nothing is being recycled")
	}
	for _, b := range slices.Concat(small, large) {
		if cap(b) > muxBufSize {
			t.Errorf("free list kept a %d-byte buffer, above the %d cap", cap(b), muxBufSize)
		}
	}
	// The rule itself, at its edge, on the emptied lists.
	putBuf(make([]byte, muxBufSize+1))
	putBuf(make([]byte, muxBufSize))
	exact := false
	edgeSmall, edgeLarge := drainFree()
	for _, b := range slices.Concat(edgeSmall, edgeLarge) {
		exact = exact || cap(b) == muxBufSize
		if cap(b) > muxBufSize {
			t.Errorf("putBuf kept a %d-byte buffer", cap(b))
		}
	}
	if !exact {
		t.Errorf("putBuf dropped a buffer of exactly %d bytes", muxBufSize)
	}
	refill(small, large)
}

// TestFreeListClasses pins the two size classes: a frame of up to
// bufMinCap never takes a large buffer, a larger frame never pops (and
// drops) a small one, a buffer smaller than bufMinCap is not kept, a
// large buffer released after a draw of any large size is what a later
// large draw of any size gets, allocating nothing, and a buffer
// released to either class is poisoned first.
func TestFreeListClasses(t *testing.T) {
	keptSmall, keptLarge := drainFree()
	defer refill(keptSmall, keptLarge)

	for range 8 {
		putBuf(make([]byte, 0, bufMinCap))
	}
	putBuf(make([]byte, 9)) // a reply body read for a caller that gave up
	putBuf(make([]byte, 0, muxBufSize))
	for _, n := range []int{0, 1, bufMinCap} {
		if b := getBuf(n); cap(b) > bufMinCap {
			t.Errorf("getBuf(%d) took a %d-byte buffer from the large class", n, cap(b))
		}
	}
	for _, n := range []int{bufMinCap + 1, muxBufSize} {
		b := getBuf(n)
		if len(b) != n || cap(b) < n {
			t.Fatalf("getBuf(%d) = len %d cap %d", n, len(b), cap(b))
		}
		putBuf(b)
	}
	small, large := drainFree()
	if len(small) < 5 {
		t.Errorf("the small class holds %d buffers after 3 small draws from 8, want 5: a large draw dropped one", len(small))
	}
	for _, b := range small {
		if cap(b) < bufMinCap {
			t.Errorf("the small class kept a %d-byte buffer: a draw of up to %d bytes, a worker's scratch, may find no room in it", cap(b), bufMinCap)
		}
	}
	if !slices.ContainsFunc(large, func(b []byte) bool { return cap(b) == muxBufSize }) {
		t.Errorf("the large class lost its %d-byte buffer", muxBufSize)
	}
	for _, b := range slices.Concat(small, large) {
		if bytes.Count(b[:cap(b)], []byte{0xDB}) != cap(b) {
			t.Errorf("a released %d-byte buffer was not poisoned", cap(b))
		}
	}

	// One large capacity: on the emptied lists, a buffer drawn at one
	// large size, released, is what a draw at any other large size pops
	// — never dropped as too small and allocated again.
	sizes := []int{bufMinCap + 1, muxBufSize / 3, muxBufSize}
	for _, drawn := range sizes {
		b := getBuf(drawn) // allocated: the lists are empty
		for _, n := range sizes {
			var got []byte
			if allocs := testing.AllocsPerRun(10, func() { putBuf(b); got = getBuf(n) }); allocs != 0 || !within(got, b) {
				t.Errorf("a draw of %d bytes after a release of one drawn at %d allocated %v times (reused it: %v), want 0 and the same buffer",
					n, drawn, allocs, within(got, b))
			}
			if len(got) != n || bytes.Count(got[:cap(got)], []byte{0xDB}) != cap(got) {
				t.Errorf("a draw of %d bytes got len %d, not the poisoned buffer released to it", n, len(got))
			}
		}
	}
}

// TestCallSingleUse pins the contract: the first wait on a call returns
// its outcome, every later one ErrCallConsumed instead of blocking
// forever.
func TestCallSingleUse(t *testing.T) {
	srv := NewServer(NewKVHandler(), 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	cl, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	call := cl.Send(Request{Op: OpPing})
	if resp, err := call.Response(); err != nil || resp.Status != StatusOK {
		t.Fatalf("first Response = %v %v", resp.Status, err)
	}
	for i := 0; i < 2; i++ {
		if _, err := call.Response(); !errors.Is(err, ErrCallConsumed) {
			t.Fatalf("Response #%d = %v, want ErrCallConsumed", i+2, err)
		}
	}
	if _, err := call.ResponseTimeout(time.Second); !errors.Is(err, ErrCallConsumed) {
		t.Fatalf("ResponseTimeout after Response = %v, want ErrCallConsumed", err)
	}
	vcall := cl.Send(Request{Op: OpGetV, Key: "absent"})
	if _, err := vcall.ResponseV(); err != nil {
		t.Fatal(err)
	}
	if _, err := vcall.ResponseV(); !errors.Is(err, ErrCallConsumed) {
		t.Fatalf("second ResponseV = %v, want ErrCallConsumed", err)
	}
	body, _ := EncodeRequest(Request{Op: OpPing})
	p := cl.SendFrame(body)
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(); !errors.Is(err, ErrCallConsumed) {
		t.Fatalf("second Wait = %v, want ErrCallConsumed", err)
	}
	// A request that cannot be encoded resolves its call the same way.
	bad := cl.Send(Request{Op: OpGetV, Key: string(make([]byte, 70000))})
	if _, err := bad.Response(); err == nil || errors.Is(err, ErrCallConsumed) {
		t.Fatalf("unsendable call = %v, want the encoding error", err)
	}
	if _, err := bad.Response(); !errors.Is(err, ErrCallConsumed) {
		t.Fatalf("unsendable call, second Response = %v, want ErrCallConsumed", err)
	}
}

// TestWaitTimeoutThenLateReply races the per-call deadline against the
// reply. Whichever resolves the call first wins and the other is
// dropped: a timed-out call never turns into its late reply, the
// connection stays usable, and csnet.mux.timeouts counts exactly the
// timeouts callers saw.
func TestWaitTimeoutThenLateReply(t *testing.T) {
	release := make(chan struct{})
	srv := NewServer(HandlerFunc(func(r Request) Response {
		if r.Key == "slow" {
			<-release
		} else if r.Key == "racy" {
			time.Sleep(200 * time.Microsecond)
		}
		return Response{Status: StatusOK, Value: []byte(r.Key)}
	}), 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	cl, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	before := csnetM.muxTimeouts.Value()
	slow := cl.Send(Request{Op: OpEcho, Key: "slow"})
	if _, err := slow.ResponseTimeout(20 * time.Millisecond); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("ResponseTimeout on a stuck handler = %v, want ErrWaitTimeout", err)
	}
	close(release) // the late reply arrives now, and is dropped
	if err := cl.Ping(); err != nil || cl.broken() {
		t.Fatalf("connection unusable after an abandoned call: %v broken=%v", err, cl.broken())
	}
	if _, err := slow.Response(); !errors.Is(err, ErrCallConsumed) {
		t.Fatalf("abandoned call resolved again: %v, want ErrCallConsumed", err)
	}
	if got := csnetM.muxTimeouts.Value() - before; got != 1 {
		t.Fatalf("csnet.mux.timeouts moved by %d for one timed-out call", got)
	}
	for deadline := time.Now().Add(2 * time.Second); cl.m.pendingCount() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned request never left the pending map")
		}
		time.Sleep(time.Millisecond)
	}

	// The race proper: a deadline as long as the handler takes, so both
	// orders happen. Every call is exactly one of the two outcomes.
	before = csnetM.muxTimeouts.Value()
	var timeouts uint64
	for i := 0; i < 300; i++ {
		resp, err := cl.Send(Request{Op: OpEcho, Key: "racy"}).ResponseTimeout(250 * time.Microsecond)
		switch {
		case errors.Is(err, ErrWaitTimeout):
			timeouts++
		case err != nil || string(resp.Value) != "racy":
			t.Fatalf("call %d: %q %v", i, resp.Value, err)
		}
	}
	if got := csnetM.muxTimeouts.Value() - before; got != timeouts {
		t.Fatalf("callers saw %d timeouts, csnet.mux.timeouts counted %d", timeouts, got)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection unusable after the race: %v", err)
	}
}

// keyStep is one write of TestServedKeysOutliveTheirFrame and what its
// key holds once it is served: a value (valueOf the key), a tombstone,
// or — after a purge — nothing.
type keyStep struct {
	req   Request
	after string // "value", "tombstone" or ""
}

func valueOf(key string) []byte { return []byte("value of " + key) }

// versionedKeySteps is every versioned op that stores a key, in each of
// its forms — server-stamped and explicit versions — under keys
// starting with prefix; a batch frame can carry all of them.
func versionedKeySteps(prefix string, clock *store.Clock) []keyStep {
	k := func(name string) string { return prefix + "/" + name + "/" + strings.Repeat("key", 10) }
	write := func(op Op, name string, version uint64) keyStep {
		key := k(name)
		return keyStep{Request{Op: op, Key: key, Value: valueOf(key), Version: version}, "value"}
	}
	purged := clock.Next()
	return []keyStep{
		write(OpSetV, "setv-stamped", 0),
		write(OpSetV, "setv", clock.Next()),
		{Request{Op: OpDelV, Key: k("delv-stamped")}, "tombstone"},
		{Request{Op: OpDelV, Key: k("delv"), Version: clock.Next()}, "tombstone"},
		write(OpMerge, "merge", clock.Next()),
		{Request{Op: OpMerge, Key: k("merge-tombstone"), Version: clock.Next(), Flags: FlagTombstone}, "tombstone"},
		write(OpSetV, "purgev", purged),
		{Request{Op: OpPurgeV, Key: k("purgev"), Version: purged}, ""},
	}
}

// writeKeys serves steps on cl twice — each alone, and then all as one
// batch frame under a second prefix. It returns every step served, and
// calls served after each frame's reply.
func writeKeys(t *testing.T, cl *Client, prefix string, served func()) []keyStep {
	t.Helper()
	clock := store.NewClock()
	alone := versionedKeySteps(prefix, clock)
	for _, s := range alone {
		resp, err := cl.Send(s.req).ResponseV()
		if err != nil || (resp.Status != StatusOK && resp.Status != StatusNotFound) {
			t.Fatalf("%s %q = %s %v", s.req.Op, s.req.Key, resp.Status, err)
		}
		served()
	}
	batched := versionedKeySteps(prefix+"/batch", clock)
	b := cl.Batch()
	for _, s := range batched {
		b.Add(s.req)
	}
	b.Send()
	for _, s := range batched {
		if resp, err := b.NextV(); err != nil || (resp.Status != StatusOK && resp.Status != StatusNotFound) {
			t.Fatalf("batched %s %q = %s %v", s.req.Op, s.req.Key, resp.Status, err)
		}
	}
	served()
	return append(alone, batched...)
}

// TestServedKeysOutliveTheirFrame: a served Request.Key aliases its
// frame, which the transport poisons on release (TestMain), so a key
// anything on the server path kept instead of copying would read back
// as 0xDB. Every op that stores a key writes one, alone and in a batch
// frame; after later traffic has churned the free list, every key must
// read back byte-exact through the engine's listing (RangeBuckets over
// every bucket) and over the wire through GETV. The stash subtest is the mutation: a handler
// that keeps req.Key sees its bytes turn to 0xDB, so the check can fail.
func TestServedKeysOutliveTheirFrame(t *testing.T) {
	dial := func(t *testing.T, h Handler) *Client {
		srv := NewServer(h, 0)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Shutdown)
		cl, err := Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}

	t.Run("engine", func(t *testing.T) {
		kv := NewKVHandler()
		cl := dial(t, kv)
		held := map[string]string{} // key -> what it holds once every step is served
		for _, s := range writeKeys(t, cl, "served", func() {}) {
			held[s.req.Key] = s.after
		}
		for i := 0; i < 200; i++ {
			if _, err := cl.Do(Request{Op: OpEcho, Value: payload(100+i, i)}); err != nil {
				t.Fatal(err)
			}
		}

		var resident []string
		for k, after := range held {
			if after != "" {
				resident = append(resident, k)
			}
		}
		eng := kv.Engine()
		every := make([]bool, eng.Buckets())
		for b := range every {
			every[b] = true
		}
		var ranged []string
		eng.RangeBuckets(every, func(k string, e store.Entry) bool {
			ranged = append(ranged, strings.Clone(k))
			if e.Tombstone != (held[k] == "tombstone") || !e.Tombstone && !bytes.Equal(e.Value, valueOf(k)) {
				t.Errorf("RangeBuckets: %q holds %+v, want %s", k, e, held[k])
			}
			return true
		})
		slices.Sort(ranged)
		slices.Sort(resident)
		if !slices.Equal(ranged, resident) {
			t.Errorf("RangeBuckets visited %q\nwant                 %q", ranged, resident)
		}
		for k, after := range held {
			e, ok, err := cl.GetV(k)
			switch {
			case err != nil:
				t.Fatalf("GETV %q: %v", k, err)
			case after == "value" && (!ok || !bytes.Equal(e.Value, valueOf(k))),
				after == "tombstone" && (ok || !e.Tombstone),
				after == "" && (ok || e.Tombstone || e.Version != 0):
				t.Errorf("GETV %q = %+v found=%v, want %q", k, e, ok, after)
			}
		}
	})

	t.Run("stash", func(t *testing.T) {
		kv := NewKVHandler()
		stash := make(chan string, 64)
		cl := dial(t, HandlerFunc(func(r Request) Response {
			stash <- r.Key // kept past Serve: the bug this test exists to catch
			return kv.Serve(r)
		}))
		checked := 0
		writeKeys(t, cl, "stashed", func() {
			for len(stash) > 0 {
				k := <-stash
				if poisoned := strings.Repeat("\xDB", len(k)); k != poisoned {
					t.Fatalf("a key kept past Serve reads %q after its frame was released, want %d bytes of 0xDB", k, len(k))
				}
				checked++
			}
		})
		if checked == 0 {
			t.Fatal("the handler stashed no keys")
		}
	})
}

// refuseBad answers a write to a key starting "bad" StatusError with
// text naming the key, and acks every other at its version; a key
// starting "slow" waits for gate first.
func refuseBad(gate <-chan struct{}) Handler {
	return HandlerFunc(func(r Request) Response {
		if strings.HasPrefix(r.Key, "slow") {
			<-gate
		}
		if strings.HasPrefix(r.Key, "bad") {
			return Response{Status: StatusError, Value: []byte("refused " + r.Key)}
		}
		return Response{Status: StatusOK, Version: r.Version}
	})
}

// TestBatchErrorTextOutlivesItsFrame: a Batch hands its reply bodies
// back to the transport, so the error text a write reply carries must
// be the caller's own copy — intact after the next NextV, after the
// burst, and after later bursts have reused the released buffers. The
// three places the text can come from: a one-entry frame, an entry of
// a multi-entry frame, and a whole-frame answer (a peer that does not
// know OpBatch).
func TestBatchErrorTextOutlivesItsFrame(t *testing.T) {
	type kept struct {
		resp Response
		want string
	}
	churn := func(cl *Client) {
		for r := 0; r < 20; r++ {
			b := cl.Batch()
			for i := 0; i < 8; i++ {
				b.Add(mergeReq(i, payload(200, r)))
			}
			b.Send()
			for i := 0; i < 8; i++ {
				b.NextV()
			}
		}
	}
	check := func(t *testing.T, when string, keep []kept) {
		t.Helper()
		for _, k := range keep {
			if k.resp.Status != StatusError || string(k.resp.Value) != k.want {
				t.Errorf("%s: reply reads %v %q, want StatusError %q", when, k.resp.Status, k.resp.Value, k.want)
			}
		}
	}

	t.Run("frames", func(t *testing.T) {
		cl := startFrames(t, protocolFrames{refuseBad(nil)})
		b := cl.Batch()
		b.Add(Request{Op: OpMerge, Key: "bad-alone", Version: 7})
		b.Send() // frame 1: one entry
		b.Add(mergeReq(1, []byte("v")))
		b.Add(Request{Op: OpMerge, Key: "bad-inside", Version: 7})
		b.Add(mergeReq(2, []byte("v")))
		b.Send() // frame 2: three entries
		refused := map[int]string{0: "refused bad-alone", 2: "refused bad-inside"}
		var keep []kept
		for i := 0; i < 4; i++ {
			resp, err := b.NextV()
			if err != nil {
				t.Fatalf("entry %d: %v", i, err)
			}
			if want, ok := refused[i]; ok {
				keep = append(keep, kept{resp, want})
			}
			check(t, fmt.Sprintf("after NextV %d", i), keep)
		}
		churn(cl)
		check(t, "after later bursts", keep)
	})

	t.Run("whole frame", func(t *testing.T) {
		cl := startFrames(t, oldPeerFrames{protocolFrames{NewKVHandler()}})
		b := cl.Batch()
		for i := 0; i < 3; i++ {
			b.Add(mergeReq(i, []byte("v")))
		}
		b.Send()
		var keep []kept
		for i := 0; i < 3; i++ {
			resp, err := b.NextV()
			if err != nil {
				t.Fatalf("entry %d: %v", i, err)
			}
			keep = append(keep, kept{resp, fmt.Sprintf("unknown op %d", OpBatch)})
			check(t, fmt.Sprintf("after NextV %d", i), keep)
		}
		churn(cl)
		check(t, "after later bursts", keep)
	})
}

// TestPendingReleaseIsChecked: under TestPoisonRelease a Batch's
// Pending refuses a second release and a resolve after its release —
// the two ways a recycled completion could be handed someone else's
// reply.
func TestPendingReleaseIsChecked(t *testing.T) {
	panics := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	p := &Pending{owned: true} // not getPending's: nothing else can draw it
	p.done.Add(1)
	p.resolve([]byte("reply"), nil)
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	panics("a release before the reply is taken", func() {
		q := &Pending{owned: true}
		q.done.Add(1)
		q.resolve(nil, nil)
		putPending(q)
	})
	putPending(p)
	panics("a second release", func() { putPending(p) })
	panics("a resolve after release", func() { p.resolve([]byte("late"), nil) })
	// Drawn again, it is open and usable. p went onto the free list
	// last, so it is among the first cap(freePendings) draws.
	for i := 0; ; i++ {
		if i == cap(freePendings) {
			t.Fatal("a released Pending is not on the free list")
		}
		if getPending() == p {
			break
		}
	}
	p.done.Add(1)
	if !p.resolve([]byte("next"), nil) {
		t.Fatal("a Pending drawn again does not resolve")
	}
	if body, err := p.Wait(); err != nil || string(body) != "next" {
		t.Fatalf("reused Pending: %q %v", body, err)
	}
}

// TestServedValuesOutliveTheirScratch: a served GETV's value is copied
// into its worker's scratch, which the worker reuses for the next frame
// or batch entry it serves, and is released (and poisoned, TestMain)
// when the worker exits. Readers issue GETVs — pipelined alone and in
// Batches — while writers overwrite the same few keys with values of
// one length, the writes the engine rewrites in place. Every reply must
// be exactly the bytes one write of the key it asked for stored: a
// scratch reused or released before its reply was encoded, or shared
// between workers, hands back another read's value or 0xDB, and under
// -race the detector sees the overlap.
func TestServedValuesOutliveTheirScratch(t *testing.T) {
	const valueLen = 192
	keys := []string{"k0", "k1", "k2", "k3"}
	valueFor := func(key string, w, seq int) []byte {
		head := fmt.Sprintf("%s w%d %08d ", key, w, seq)
		return bytes.Repeat([]byte(head), valueLen/len(head)+1)[:valueLen]
	}
	kv := NewKVHandler()
	for _, k := range keys {
		kv.Engine().Set(k, valueFor(k, 0, 0))
	}
	srv := NewServer(kv, 0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	// The readers share one connection, so its workers serve their
	// GETVs side by side.
	dial := func() *Client {
		cl, err := Dial(addr, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	rcl := dial()
	check := func(key string, resp Response, err error) bool {
		if err != nil || resp.Status != StatusOK {
			t.Errorf("GETV %s = %s %v", key, resp.Status, err)
			return false
		}
		var k string
		var w, seq int
		if _, err := fmt.Sscanf(string(resp.Value), "%s w%d %d", &k, &w, &seq); err != nil || !bytes.Equal(resp.Value, valueFor(key, w, seq)) {
			t.Errorf("GETV %s answered %q, which no write of it stored", key, resp.Value[:min(24, len(resp.Value))])
			return false
		}
		return true
	}
	rewrites := obs.Default().Counter("store.table.rewrites")
	before := rewrites.Value()
	const writers, readers, rounds = 2, 3, 150
	var wg sync.WaitGroup
	for w := 1; w <= writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := dial()
			for seq := 1; seq <= rounds; seq++ {
				calls := make([]*Call, len(keys))
				for i, k := range keys {
					calls[i] = cl.Send(Request{Op: OpSetV, Key: k, Value: valueFor(k, w, seq)})
				}
				for i, c := range calls {
					if resp, err := c.ResponseV(); err != nil || resp.Status != StatusOK {
						t.Errorf("SETV %s = %s %v", keys[i], resp.Status, err)
						return
					}
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				calls := make([]*Call, len(keys))
				for j, k := range keys {
					calls[j] = rcl.Send(Request{Op: OpGetV, Key: k})
				}
				for j, c := range calls {
					if resp, err := c.ResponseV(); !check(keys[j], resp, err) {
						return
					}
				}
				b := rcl.Batch()
				for j := range keys {
					b.Add(Request{Op: OpGetV, Key: keys[(r+j)%len(keys)]})
				}
				b.Send()
				for j := range keys {
					if resp, err := b.NextV(); !check(keys[(r+j)%len(keys)], resp, err) {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if rewrites.Value() == before {
		t.Fatal("no SETV rewrote a record in place: the test exercised nothing")
	}
}
