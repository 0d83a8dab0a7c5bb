package csnet

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain turns poison-on-release on for the whole suite: every
// buffer the transport releases is overwritten with 0xDB, so an alias
// that outlives its owner corrupts what some existing test asserts on.
func TestMain(m *testing.M) {
	TestPoisonRelease = true
	os.Exit(m.Run())
}

// EncodeResponse serializes an unversioned response into a fresh
// buffer.
func EncodeResponse(r Response) []byte { return AppendResponse(nil, r) }

// EncodeRangeV serializes an OpRangeV listing, the body KVHandler
// encodes in place: count(4) then count * (keyLen(2) key version(8)
// digest(8) flags(1)).
func EncodeRangeV(entries []KeyDigest) ([]byte, error) {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(entries)))
	for _, e := range entries {
		if len(e.Key) > 0xFFFF {
			return nil, fmt.Errorf("csnet: key length %d exceeds 65535", len(e.Key))
		}
		buf = appendRangeVEntry(buf, e)
	}
	return buf, nil
}

// pendingCount reports how many requests await responses.
func (m *muxConn) pendingCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// muxGoroutines names every goroutine running a mux loop — a client
// connection's reader or writer, or a server's accept loop, connection
// reader, handler worker or frame writer — by its header and the first
// such frame of its stack.
func muxGoroutines() []string {
	var live []string
	for _, g := range goroutines() {
		lines := strings.Split(g, "\n")
		for _, l := range lines[1:] {
			if strings.Contains(l, "csnet.(*muxConn).") || strings.Contains(l, "csnet.(*Server).") || strings.Contains(l, "csnet.runFrameWriter") {
				live = append(live, lines[0]+" "+strings.TrimSpace(l))
				break
			}
		}
	}
	return live
}

// muxLoopsDialedHere returns the stack of every client reader and
// writer goroutine that a Dial made by the calling goroutine started.
func muxLoopsDialedHere() []string {
	self := make([]byte, 64)
	self = self[:runtime.Stack(self, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(self), "goroutine "), " ")
	creator := "created by pdcedu/internal/csnet.newMuxConn in goroutine " + id + "\n"
	var live []string
	for _, g := range goroutines() {
		if strings.Contains(g+"\n", creator) {
			live = append(live, g)
		}
	}
	return live
}

// goroutines returns the stack of every goroutine, one string each.
func goroutines() []string {
	buf := make([]byte, 64<<10)
	for n := runtime.Stack(buf, true); ; n = runtime.Stack(buf, true) {
		if n < len(buf) {
			return strings.Split(string(buf[:n]), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// shutdownOnCleanup closes cl and shuts srv down when the test ends,
// and waits there until no mux goroutine is left: Shutdown returns
// before its connections' goroutines have finished their last deferred
// calls, so one still exiting — allocating its error on the way out —
// would land in whatever test runs next, and testing.AllocsPerRun
// counts the whole process.
func shutdownOnCleanup(t *testing.T, srv *Server, cl *Client) {
	t.Cleanup(func() {
		cl.Close()
		srv.Shutdown()
		deadline := time.Now().Add(5 * time.Second)
		for live := muxGoroutines(); len(live) > 0; live = muxGoroutines() {
			if time.Now().After(deadline) {
				t.Errorf("mux goroutines still running 5 s after shutdown: %s", strings.Join(live, "; "))
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}
