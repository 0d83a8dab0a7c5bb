package csnet

import (
	"encoding/binary"
	"fmt"
	"os"
	"testing"
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
