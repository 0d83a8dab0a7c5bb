package csnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"pdcedu/internal/trace"
)

// Op is a protocol operation code.
type Op byte

const (
	// OpPing checks liveness.
	OpPing Op = iota + 1
	// The blank bytes are the retired unversioned key-value ops. They
	// stay reserved, so every later op keeps its byte, and a server
	// answers them "unknown op" in the unversioned framing they used.
	_ // 2: GET
	_ // 3: SET
	_ // 4: DEL
	// OpEcho returns the value unchanged.
	OpEcho
	_ // 6: SETNX
	// OpGossip carries one opaque cluster-membership message in Value
	// (the SWIM probe/ack traffic of internal/member); the response
	// Value is the encoded reply. Key is unused.
	OpGossip
	_ // 8: KEYS
	// OpSetV is the versioned write: the frame carries an 8-byte
	// version stamped by the coordinator's hybrid logical clock, and
	// the server applies it with last-writer-wins merge (StatusOK) or
	// keeps its newer resident entry (StatusExists) — either way the
	// response carries the winning version. Version 0 asks the server
	// to stamp a fresh version itself.
	OpSetV
	// OpGetV is the versioned read: an OK response carries the value
	// and its version; a NotFound response still carries the version
	// (and FlagTombstone) of a resident tombstone, so a reader can tell
	// "deleted at version v" apart from "never existed" and propagate
	// the delete.
	OpGetV
	// OpDelV is the versioned delete: a tombstone at the given version
	// (0 = server-stamped), merged last-writer-wins like OpSetV.
	OpDelV
	// OpMerge applies a full replicated entry — value or tombstone per
	// FlagTombstone — iff it is newer than the resident one. It is the
	// op read-repair, hinted handoff, and the rebalancer use: a stale
	// replay answers StatusExists and changes nothing, so replay order
	// can never resurrect old state.
	OpMerge
	// opRetiredKeysV is the byte of the retired whole-store listing
	// (OpKeysV). It stays reserved and versioned, so every later op keeps
	// its byte and an older peer's request still decodes — to be
	// answered "unknown op" in the framing it expects.
	opRetiredKeysV
	// OpTreeV answers Merkle digest queries: the request Value is an
	// EncodeBucketList of tree node indexes (empty = just the root),
	// the response Value an EncodeTree of their hashes plus the tree
	// geometry. A coordinator descends every replica's tree from the
	// root through mismatching nodes to the divergent leaf buckets in
	// O(log buckets) exchanges, so no pass ever lists the whole store.
	OpTreeV
	// OpRangeV lists the raw entries of the requested Merkle buckets
	// only (request Value: EncodeBucketList of bucket indexes; response
	// Value: the listing DecodeRangeV reads, count(4) then per entry
	// keyLen(2) key version(8) digest(8) flags(1)), each entry carrying
	// its version, value digest, and tombstone flag. It is what the
	// digest descent ends in: only divergent buckets ever pay for a
	// listing, and the digest makes same-version value splits visible
	// to the planner.
	OpRangeV
	// OpStats asks the server for its live metrics: the response Value
	// is an obs.Snapshot of the process-global registry, encoded by
	// Snapshot.Encode. Key and request Value are unused. It is the wire
	// leg of the cluster stats plane — dist.Cluster.ClusterStats fans it
	// out over the existing mux and merges the replies, so one call sees
	// every node's counters and latency histograms without any side
	// channel.
	OpStats
	// OpTraces asks the server for spans from its trace recorder: the
	// request Value is an EncodeTraceQuery (all spans, one trace by ID,
	// or only pinned slow traces), the response Value a
	// trace.EncodeSpans list; spans pulled from several nodes assemble
	// into cross-node trees (trace.Assemble), as bench -traced does.
	// Key is unused.
	OpTraces
	// OpBatch is an envelope, not an operation: the request Value is a
	// counted sequence of encoded requests (AppendBatchItem), answered
	// by a StatusOK response whose Value is the same sequence of their
	// encoded responses, in order, each in the framing its own request's
	// op calls for. The server runs every entry through the handler as
	// if it had arrived alone, then waits for durability once. It is how
	// a multi-key burst crosses the wire (see Batch); a peer that does
	// not know the op answers the whole frame StatusError "unknown op",
	// and so does a server asked to nest one. Key is unused.
	OpBatch
	// OpPurgeV removes Key's resident entry outright — no tombstone —
	// iff its version is at most Version: StatusOK when it removed one,
	// otherwise StatusExists carrying the resident version (newer than
	// Version, or 0 for none). Anti-entropy sends it to drop a copy a
	// backend holds in a bucket it does not own, once every owner holds
	// at least as much; the version bound is what keeps a write that
	// landed after the listing. A durable server logs it as a purge
	// record.
	OpPurgeV
)

// Versioned reports whether op's request and response frames carry the
// 8-byte version + 1-byte flags trailer.
func Versioned(op Op) bool {
	switch op {
	case OpSetV, OpGetV, OpDelV, OpMerge, opRetiredKeysV, OpTreeV, OpRangeV, OpPurgeV:
		return true
	}
	return false
}

// Flag bits carried by versioned frames.
const (
	// FlagTombstone marks a deleted entry.
	FlagTombstone byte = 1 << 0
	// flagRetiredExpiry (bit 1) once marked a trailer carrying an
	// 8-byte expiry after the flags byte. Entries no longer expire, so
	// the bit is reserved: a versioned frame or a listing entry that
	// sets it is refused as malformed rather than misparsed.
	flagRetiredExpiry byte = 1 << 1
	// FlagHasTrace marks a versioned request whose trailer carries a
	// 17-byte trace context — traceID(8) spanID(8) traceFlags(1) —
	// after the flags byte. The codec sets and consumes it from the
	// Trace field, so an untraced frame stays byte-identical to a
	// pre-tracing build and a legacy peer is never shown the trailer.
	FlagHasTrace byte = 1 << 2
)

// String returns the op mnemonic.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "PING"
	case OpEcho:
		return "ECHO"
	case OpGossip:
		return "GOSSIP"
	case OpSetV:
		return "SETV"
	case OpGetV:
		return "GETV"
	case OpDelV:
		return "DELV"
	case OpMerge:
		return "MERGE"
	case OpTreeV:
		return "TREEV"
	case OpRangeV:
		return "RANGEV"
	case OpStats:
		return "STATS"
	case OpTraces:
		return "TRACES"
	case OpBatch:
		return "BATCH"
	case OpPurgeV:
		return "PURGEV"
	default:
		return "UNKNOWN"
	}
}

// Status is a response status code.
type Status byte

const (
	// StatusOK indicates success.
	StatusOK Status = iota + 1
	// StatusNotFound indicates a missing key.
	StatusNotFound
	// StatusError carries an error message in Value.
	StatusError
	// StatusExists reports that a versioned write left a newer resident
	// entry unchanged (or, for OpPurgeV, that nothing old enough was
	// there to remove); the response carries the resident version.
	StatusExists
	// StatusBusy reports that the server shed the request under
	// admission control (worker queue full or in-flight budget
	// exhausted) without executing it. The request had no effect and is
	// safe to retry after backoff; clients map it to the typed,
	// retryable ErrBusy. A server never emits it unless shedding was
	// explicitly enabled (Server.SetAdmission), so a pre-busy peer — or
	// a default-configured one — stays byte-identical on the wire.
	StatusBusy
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusError:
		return "ERROR"
	case StatusExists:
		return "EXISTS"
	case StatusBusy:
		return "BUSY"
	default:
		return "UNKNOWN"
	}
}

// Request is a protocol request. Version and Flags ride the wire only
// for versioned ops (see Versioned). Trace likewise rides only
// versioned requests, only when valid (gated by FlagHasTrace). On a
// server, Key and Value alias the request frame and are valid only
// until Handler.Serve returns (the ownership rule in mux.go).
type Request struct {
	Op      Op
	Key     string
	Value   []byte
	Version uint64
	Flags   byte
	// Trace is the distributed trace context stamped by the
	// coordinator; the server's handler records its spans under it.
	Trace trace.Context

	w *worker // the worker serving the request (server.go); never on the wire
}

// Response is a protocol response. Version and Flags ride the wire
// only in replies to versioned ops.
type Response struct {
	Status  Status
	Value   []byte
	Version uint64
	Flags   byte
}

// versionTrailerSize is the fixed part of a versioned frame's trailer:
// version(8) flags(1). FlagHasTrace appends traceID(8) spanID(8)
// traceFlags(1).
const versionTrailerSize = 8 + 1

// traceTrailerSize is the optional trace extension of the trailer.
const traceTrailerSize = 8 + 8 + 1

// appendTrailer writes the versioned trailer: version, flags (with
// FlagHasTrace derived from tr), then the optional trace context.
func appendTrailer(buf []byte, version uint64, flags byte, tr trace.Context) []byte {
	flags &^= FlagHasTrace
	if tr.Valid() {
		flags |= FlagHasTrace
	}
	buf = binary.BigEndian.AppendUint64(buf, version)
	buf = append(buf, flags)
	if tr.Valid() {
		buf = binary.BigEndian.AppendUint64(buf, tr.TraceID)
		buf = binary.BigEndian.AppendUint64(buf, tr.SpanID)
		buf = append(buf, tr.Flags)
	}
	return buf
}

// parseTrailer reads a versioned trailer, returning the decoded fields
// (flags with FlagHasTrace cleared — the Context carries the meaning).
// The reserved expiry bit is refused.
func parseTrailer(b []byte) (version uint64, flags byte, tr trace.Context, err error) {
	if len(b) < versionTrailerSize {
		return 0, 0, tr, fmt.Errorf("csnet: truncated version trailer (%d bytes)", len(b))
	}
	version = binary.BigEndian.Uint64(b[:8])
	flags = b[8]
	rest := b[versionTrailerSize:]
	if flags&flagRetiredExpiry != 0 {
		return 0, 0, tr, fmt.Errorf("csnet: version trailer: %w", errRetiredExpiry)
	}
	if flags&FlagHasTrace != 0 {
		if len(rest) < traceTrailerSize {
			return 0, 0, tr, fmt.Errorf("csnet: truncated trace in version trailer")
		}
		tr.TraceID = binary.BigEndian.Uint64(rest[:8])
		tr.SpanID = binary.BigEndian.Uint64(rest[8:16])
		tr.Flags = rest[16]
		rest = rest[traceTrailerSize:]
		flags &^= FlagHasTrace
	}
	if len(rest) != 0 {
		return 0, 0, tr, fmt.Errorf("csnet: %d trailing bytes after version trailer", len(rest))
	}
	return version, flags, tr, nil
}

// errRetiredExpiry refuses a trailer or listing entry that sets the
// reserved expiry bit.
var errRetiredExpiry = errors.New("reserved flag bit 1 (retired expiry) set")

// maxTrailerSize is the versioned trailer with its trace extension.
const maxTrailerSize = versionTrailerSize + traceTrailerSize

// AppendRequest appends the serialized request to dst and returns the
// extended slice, growing dst at most once:
// op(1) keyLen(2) key valLen(4) val
// [version(8) flags(1) [traceID(8) spanID(8) tflags(1)]],
// the trailer present exactly for versioned ops, the trace extension
// only when the request carries a valid trace context. On error dst is
// returned unchanged.
func AppendRequest(dst []byte, r Request) ([]byte, error) {
	if len(r.Key) > 0xFFFF {
		return dst, fmt.Errorf("csnet: key length %d exceeds 65535", len(r.Key))
	}
	dst = slices.Grow(dst, requestSize(r))
	dst = append(dst, byte(r.Op))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Value)))
	dst = append(dst, r.Value...)
	if Versioned(r.Op) {
		dst = appendTrailer(dst, r.Version, r.Flags, r.Trace)
	}
	return dst, nil
}

// requestSize is the most AppendRequest appends for r.
func requestSize(r Request) int {
	size := 1 + 2 + len(r.Key) + 4 + len(r.Value)
	if Versioned(r.Op) {
		size += maxTrailerSize
	}
	return size
}

// EncodeRequest serializes a request into a fresh buffer.
func EncodeRequest(r Request) ([]byte, error) { return AppendRequest(nil, r) }

// DecodeRequest parses a serialized request. The request's Key and
// Value alias b, copying nothing (see the ownership rule in mux.go).
func DecodeRequest(b []byte) (Request, error) {
	var r Request
	if len(b) < 7 {
		return r, fmt.Errorf("csnet: request too short (%d bytes)", len(b))
	}
	r.Op = Op(b[0])
	kl := int(binary.BigEndian.Uint16(b[1:3]))
	if len(b) < 3+kl+4 {
		return r, fmt.Errorf("csnet: truncated request key")
	}
	r.Key = aliasString(b[3 : 3+kl])
	vl := int(binary.BigEndian.Uint32(b[3+kl : 3+kl+4]))
	rest := b[3+kl+4:]
	if Versioned(r.Op) {
		if len(rest) < vl {
			return r, fmt.Errorf("csnet: truncated versioned request value")
		}
		r.Value = rest[:vl]
		var err error
		r.Version, r.Flags, r.Trace, err = parseTrailer(rest[vl:])
		return r, err
	}
	if len(rest) != vl {
		return r, fmt.Errorf("csnet: request length mismatch: have %d want %d", len(b), 3+kl+4+vl)
	}
	r.Value = rest
	return r, nil
}

// AppendResponse appends an unversioned response to dst and returns the
// extended slice: status(1) valLen(4) val.
func AppendResponse(dst []byte, r Response) []byte {
	dst = slices.Grow(dst, 1+4+len(r.Value))
	dst = append(dst, byte(r.Status))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Value)))
	return append(dst, r.Value...)
}

// AppendResponseV appends a versioned response to dst and returns the
// extended slice: status(1) valLen(4) val version(8) flags(1).
func AppendResponseV(dst []byte, r Response) []byte {
	dst = AppendResponse(slices.Grow(dst, 1+4+len(r.Value)+maxTrailerSize), r)
	// Responses never carry a trace context: the caller already holds
	// it, so the zero Context keeps response bytes identical to an
	// untraced build.
	return appendTrailer(dst, r.Version, r.Flags, trace.Context{})
}

// EncodeResponseV serializes into a fresh buffer.
func EncodeResponseV(r Response) []byte { return AppendResponseV(nil, r) }

// appendReply appends resp in the framing a caller of op expects:
// versioned ops get the trailer, the rest do not.
func appendReply(dst []byte, op Op, resp Response) []byte {
	if Versioned(op) {
		return AppendResponseV(dst, resp)
	}
	return AppendResponse(dst, resp)
}

// A batch body — the Value of an OpBatch request and of its response
// alike — is count(4) then count * (len(4) item), the items encoded
// requests one way and encoded responses the other.

// batchItemMin is the least a batch item costs its body: the length
// prefix of an empty item.
const batchItemMin = 4

// batchRequestHeader is what precedes the items of an OpBatch request
// frame: op(1) keyLen(2)=0 valLen(4) count(4).
const batchRequestHeader = 1 + 2 + 4 + 4

// BatchItems walks a batch body's items in order, allocating nothing.
type BatchItems struct {
	b    []byte
	left int
}

// DecodeBatch opens a batch body. A count the body cannot hold — every
// item costs at least its length prefix — is rejected here, so the
// count may size an allocation.
func DecodeBatch(b []byte) (BatchItems, error) {
	if len(b) < 4 {
		return BatchItems{}, fmt.Errorf("csnet: batch too short (%d bytes)", len(b))
	}
	n := int(binary.BigEndian.Uint32(b))
	if n > (len(b)-4)/batchItemMin {
		return BatchItems{}, fmt.Errorf("csnet: batch count %d exceeds body size %d", n, len(b)-4)
	}
	if n == 0 && len(b) != 4 {
		return BatchItems{}, fmt.Errorf("csnet: %d trailing bytes after batch", len(b)-4)
	}
	return BatchItems{b: b[4:], left: n}, nil
}

// Len reports how many items have not been read yet.
func (it *BatchItems) Len() int { return it.left }

// Next returns the next item, aliasing the body. After the last item
// it checks that the body ends there.
func (it *BatchItems) Next() ([]byte, error) {
	if it.left == 0 {
		return nil, fmt.Errorf("csnet: batch has no more items")
	}
	if len(it.b) < 4 {
		return nil, fmt.Errorf("csnet: truncated batch item length")
	}
	n := int(binary.BigEndian.Uint32(it.b))
	if n > len(it.b)-4 {
		return nil, fmt.Errorf("csnet: truncated batch item: have %d want %d", len(it.b)-4, n)
	}
	item := it.b[4 : 4+n]
	it.b = it.b[4+n:]
	if it.left--; it.left == 0 && len(it.b) != 0 {
		return nil, fmt.Errorf("csnet: %d trailing bytes after batch", len(it.b))
	}
	return item, nil
}

// AppendBatchHeader appends a batch body's count.
func AppendBatchHeader(dst []byte, count int) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(count))
}

// AppendBatchItem appends one length-prefixed item to a batch body.
func AppendBatchItem(dst, item []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(item)))
	return append(dst, item...)
}

// DecodeResponseV parses a versioned response.
func DecodeResponseV(b []byte) (Response, error) {
	var r Response
	if len(b) < 5+versionTrailerSize {
		return r, fmt.Errorf("csnet: versioned response too short (%d bytes)", len(b))
	}
	r.Status = Status(b[0])
	vl := int(binary.BigEndian.Uint32(b[1:5]))
	if len(b) < 5+vl+versionTrailerSize {
		return r, fmt.Errorf("csnet: versioned response length mismatch: have %d want at least %d",
			len(b), 5+vl+versionTrailerSize)
	}
	r.Value = b[5 : 5+vl]
	var err error
	r.Version, r.Flags, _, err = parseTrailer(b[5+vl:])
	return r, err
}

// Trace query modes for OpTraces.
const (
	// TraceQueryAll asks for every span the recorder currently holds.
	TraceQueryAll byte = iota
	// TraceQueryID asks for one trace's spans; the query carries the
	// 8-byte trace ID.
	TraceQueryID
	// TraceQuerySlow asks for only the pinned (tail-promoted) slow
	// traces.
	TraceQuerySlow
)

// EncodeTraceQuery serializes an OpTraces request body: mode(1), plus
// the 8-byte trace ID for TraceQueryID.
func EncodeTraceQuery(mode byte, id uint64) []byte {
	if mode != TraceQueryID {
		return []byte{mode}
	}
	buf := make([]byte, 1+8)
	buf[0] = mode
	binary.BigEndian.PutUint64(buf[1:], id)
	return buf
}

// DecodeTraceQuery parses an OpTraces request body.
func DecodeTraceQuery(b []byte) (mode byte, id uint64, err error) {
	if len(b) < 1 {
		return 0, 0, fmt.Errorf("csnet: empty trace query")
	}
	mode = b[0]
	if mode == TraceQueryID {
		if len(b) != 1+8 {
			return 0, 0, fmt.Errorf("csnet: trace query by ID is %d bytes, want 9", len(b))
		}
		return mode, binary.BigEndian.Uint64(b[1:]), nil
	}
	if len(b) != 1 {
		return 0, 0, fmt.Errorf("csnet: %d trailing bytes after trace query", len(b)-1)
	}
	return mode, 0, nil
}

// DecodeResponse parses a serialized response.
func DecodeResponse(b []byte) (Response, error) {
	var r Response
	if len(b) < 5 {
		return r, fmt.Errorf("csnet: response too short (%d bytes)", len(b))
	}
	r.Status = Status(b[0])
	vl := int(binary.BigEndian.Uint32(b[1:5]))
	if len(b) != 5+vl {
		return r, fmt.Errorf("csnet: response length mismatch: have %d want %d", len(b), 5+vl)
	}
	r.Value = b[5:]
	return r, nil
}
