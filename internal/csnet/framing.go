// Package csnet implements the network-programming content of the RIT
// case-study course ("socket and datagram programming, application
// protocol design"): length-prefixed message framing over TCP, a small
// binary request/response key-value protocol, a concurrent TCP server
// with a connection limit and graceful shutdown, a pipelined
// multiplexed client with the one redialing connection a process keeps
// per server (Peer), and a UDP datagram echo service.
//
// A listener speaks one wire format, the muxed one:
//
//	CSM1 then length(4) seq(8) body    — many requests in flight, the
//	                                     response echoes the request seq
//
// A client opens every connection with the 4-byte preamble "CSM1"; a
// connection that opens with anything else is closed without a reply.
// WriteFrame and ReadFrame are the framing lesson on its own —
// length(4) body, one request, one response, FIFO — for programs that
// build their own protocol over a stream; no Server speaks it.
package csnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrameSize bounds a frame body; protects servers from hostile or
// corrupt length prefixes (the first lesson of protocol design).
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge is returned for frames exceeding MaxFrameSize.
var ErrFrameTooLarge = errors.New("csnet: frame exceeds maximum size")

// muxMagic is the preamble a client sends right after connecting.
var muxMagic = [4]byte{'C', 'S', 'M', '1'}

// frameHeaderSize is a length-prefixed frame's header (length only);
// muxHeaderSize adds the 8-byte sequence number.
const (
	frameHeaderSize = 4
	muxHeaderSize   = 12
)

// WriteFrame writes a length-prefixed frame (4-byte big-endian length +
// body) as a single coalesced write: one syscall and one TCP segment
// instead of two.
func WriteFrame(w io.Writer, body []byte) error {
	if len(body) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	frame := binary.BigEndian.AppendUint32(make([]byte, 0, frameHeaderSize+len(body)), uint32(len(body)))
	frame = append(frame, body...)
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("csnet: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF is meaningful to callers: pass through
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("csnet: read frame body: %w", err)
	}
	return body, nil
}

// putMuxHeader fills hdr with the muxed frame header for a body of n
// bytes tagged with seq. hdr must be muxHeaderSize long.
func putMuxHeader(hdr []byte, seq uint64, n int) {
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	binary.BigEndian.PutUint64(hdr[4:12], seq)
}

// parseMuxHeader is the inverse of putMuxHeader.
func parseMuxHeader(hdr []byte) (seq uint64, n uint32) {
	return binary.BigEndian.Uint64(hdr[4:12]), binary.BigEndian.Uint32(hdr[0:4])
}
