package member

import (
	"encoding/binary"
	"fmt"
)

// msgKind discriminates the SWIM message types carried inside an
// OpGossip frame.
type msgKind uint8

const (
	// msgPing is a direct liveness probe; answered by msgAck.
	msgPing msgKind = iota + 1
	// msgPingReq asks the receiver to probe Target on the sender's
	// behalf (the indirect probe that routes around a lossy path);
	// answered by msgAck if the relay heard back, msgNack otherwise.
	msgPingReq
	// msgAck confirms liveness.
	msgAck
	// msgNack reports a failed indirect probe.
	msgNack
	// msgSync requests a full-state exchange: its Updates carry the
	// sender's whole table; the msgSyncAck reply carries the
	// receiver's. Join and periodic anti-entropy use it.
	msgSync
	// msgSyncAck answers msgSync.
	msgSyncAck
)

// The wire format of a message, which every node of every version
// speaks: kind(1) from(str16) target(str16) count(2), then count
// updates of state(1) incarnation(8) id(str16), where a str16 is a
// 2-byte big-endian length and that many bytes. appendHeader and
// appendUpdate write a message into a buffer the caller keeps;
// parseMessage reads one where it lies. Neither allocates.

// maxField is the longest str16 and the most updates a message carries.
const maxField = 0xFFFF

// appendHeader appends the fixed part of a message carrying count
// updates. Every string fits a str16 and count is at most maxField: a
// node's own ID is checked by New, every other ID arrived in a str16,
// and a sync caps its rows.
func appendHeader(b []byte, kind msgKind, from, target string, count int) []byte {
	b = append(b, byte(kind))
	b = appendString16(b, from)
	b = appendString16(b, target)
	return binary.BigEndian.AppendUint16(b, uint16(count))
}

// appendUpdate appends one update of a message.
func appendUpdate(b []byte, id string, st State, inc uint64) []byte {
	b = append(b, byte(st))
	b = binary.BigEndian.AppendUint64(b, inc)
	return appendString16(b, id)
}

func appendString16(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func readString16(b []byte) (s, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("member: truncated string length")
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return nil, nil, fmt.Errorf("member: truncated string body")
	}
	return b[2 : 2+n], b[2+n:], nil
}

// inbound is a message as parseMessage found it: its strings and
// updates alias the bytes it was parsed from, so it is valid as long
// as they are, and whatever is kept of it is copied.
type inbound struct {
	kind    msgKind
	from    []byte
	target  []byte
	count   int
	updates []byte // count updates, every one checked
}

// parseMessage checks a whole message — its kind, every length, every
// update's state, and that nothing trails it — before any of it is
// applied, so a message is taken whole or not at all.
func parseMessage(b []byte) (inbound, error) {
	var in inbound
	if len(b) < 1 {
		return in, fmt.Errorf("member: empty message")
	}
	in.kind = msgKind(b[0])
	if in.kind < msgPing || in.kind > msgSyncAck {
		return in, fmt.Errorf("member: unknown message kind %d", b[0])
	}
	var err error
	if in.from, b, err = readString16(b[1:]); err != nil {
		return in, err
	}
	if in.target, b, err = readString16(b); err != nil {
		return in, err
	}
	if len(b) < 2 {
		return in, fmt.Errorf("member: truncated update count")
	}
	in.count = int(binary.BigEndian.Uint16(b))
	in.updates = b[2:]
	b = b[2:]
	for i := 0; i < in.count; i++ {
		if len(b) < 9 {
			return in, fmt.Errorf("member: truncated update %d", i)
		}
		if st := State(b[0]); st < StateAlive || st > StateDead {
			return in, fmt.Errorf("member: unknown state %d in update %d", b[0], i)
		}
		if _, b, err = readString16(b[9:]); err != nil {
			return in, err
		}
	}
	if len(b) != 0 {
		return in, fmt.Errorf("member: %d trailing bytes", len(b))
	}
	return in, nil
}

// next returns the message's next update and moves past it; call it
// count times.
func (in *inbound) next() (id []byte, st State, inc uint64) {
	b := in.updates
	n := int(binary.BigEndian.Uint16(b[9:]))
	in.updates = b[11+n:]
	return b[11 : 11+n], State(b[0]), binary.BigEndian.Uint64(b[1:9])
}
