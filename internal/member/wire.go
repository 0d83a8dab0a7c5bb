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

// message is one decoded SWIM protocol message. Every message
// piggybacks Updates — dissemination rides on probe traffic.
type message struct {
	Kind    msgKind
	From    string // sender's member ID
	Target  string // msgPingReq only: who to probe
	Updates []Update
}

func appendString16(b []byte, s string) ([]byte, error) {
	if len(s) > 0xFFFF {
		return nil, fmt.Errorf("member: string length %d exceeds 65535", len(s))
	}
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(s)))
	b = append(b, l[:]...)
	return append(b, s...), nil
}

func readString16(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("member: truncated string length")
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, fmt.Errorf("member: truncated string body")
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

// minUpdateSize is the least an update costs its message: state,
// incarnation and an empty id's length.
const minUpdateSize = 1 + 8 + 2

// encodeMessage serializes a message:
// kind(1) from(str16) target(str16) count(2) then count * update,
// update = state(1) incarnation(8) id(str16).
func encodeMessage(m message) ([]byte, error) {
	if len(m.Updates) > 0xFFFF {
		return nil, fmt.Errorf("member: %d piggybacked updates exceed 65535", len(m.Updates))
	}
	buf := []byte{byte(m.Kind)}
	var err error
	if buf, err = appendString16(buf, m.From); err != nil {
		return nil, err
	}
	if buf, err = appendString16(buf, m.Target); err != nil {
		return nil, err
	}
	var c [2]byte
	binary.BigEndian.PutUint16(c[:], uint16(len(m.Updates)))
	buf = append(buf, c[:]...)
	var inc [8]byte
	for _, u := range m.Updates {
		buf = append(buf, byte(u.State))
		binary.BigEndian.PutUint64(inc[:], u.Incarnation)
		buf = append(buf, inc[:]...)
		if buf, err = appendString16(buf, u.ID); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// decodeMessage parses a serialized message.
func decodeMessage(b []byte) (message, error) {
	var m message
	if len(b) < 1 {
		return m, fmt.Errorf("member: empty message")
	}
	m.Kind = msgKind(b[0])
	if m.Kind < msgPing || m.Kind > msgSyncAck {
		return m, fmt.Errorf("member: unknown message kind %d", b[0])
	}
	b = b[1:]
	var err error
	if m.From, b, err = readString16(b); err != nil {
		return m, err
	}
	if m.Target, b, err = readString16(b); err != nil {
		return m, err
	}
	if len(b) < 2 {
		return m, fmt.Errorf("member: truncated update count")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if n > len(b)/minUpdateSize {
		return m, fmt.Errorf("member: %d updates overrun a %d-byte body", n, len(b))
	}
	if n > 0 {
		m.Updates = make([]Update, 0, n)
	}
	for i := 0; i < n; i++ {
		if len(b) < 9 {
			return m, fmt.Errorf("member: truncated update %d", i)
		}
		u := Update{State: State(b[0]), Incarnation: binary.BigEndian.Uint64(b[1:9])}
		if u.State < StateAlive || u.State > StateDead {
			return m, fmt.Errorf("member: unknown state %d in update %d", b[0], i)
		}
		b = b[9:]
		if u.ID, b, err = readString16(b); err != nil {
			return m, err
		}
		m.Updates = append(m.Updates, u)
	}
	if len(b) != 0 {
		return m, fmt.Errorf("member: %d trailing bytes", len(b))
	}
	return m, nil
}
