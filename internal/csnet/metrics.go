package csnet

import (
	"sync/atomic"
	"time"

	"pdcedu/internal/obs"
	"pdcedu/internal/store"
)

// Wire-layer metric names. Per-op metrics append the op mnemonic:
//
//	csnet.server.ops.<OP>         counter: requests served
//	csnet.server.op_latency.<OP>  histogram: handler latency, ns
//	csnet.server.bytes_in         counter: request frame bytes
//	csnet.server.bytes_out        counter: response frame bytes
//	csnet.server.decode_errors    counter: malformed request frames, and
//	                              connections opened without the CSM1
//	                              preamble
//	csnet.server.batch_entries    histogram: entries per OpBatch frame
//	csnet.server.queue_depth.hw   gauge: per-conn worker queue high water
//	csnet.server.slow_ops         counter: ops over the slow-op threshold
//	csnet.server.shed             counter: frames answered StatusBusy by
//	                              admission control (queue or budget)
//	csnet.server.inflight.hw      gauge: admitted-frame high water while
//	                              the in-flight budget is enabled
//	csnet.server.reply_oversize   counter: reply frames that outgrew
//	                              muxBufSize, so their buffer was dropped
//	                              instead of recycled
//	csnet.mux.pending.hw          gauge: client pipeline depth high water
//	csnet.mux.timeouts            counter: client waits that expired
//	csnet.mux.poisoned            counter: muxed conns failed with error
//	csnet.mux.frames_per_flush    histogram: frames per flush of a muxed
//	                              conn's writer, client and server side
//	                              alike: how well a burst coalesces
//	csnet.peer.redials            counter: broken Peer connections replaced
//	                              (the coordinator's and gossip's alike)
//
// Out-of-range or unknown op bytes (including the decode-failure path,
// where the op is untrusted) land in the UNKNOWN slot rather than
// silently vanishing.
type serverMetrics struct {
	ops        [int(OpPurgeV) + 1]*obs.Counter
	latency    [int(OpPurgeV) + 1]*obs.Histogram
	bytesIn    *obs.Counter
	bytesOut   *obs.Counter
	decodeEr   *obs.Counter
	queueHW    *obs.Gauge
	slowOps    *obs.Counter
	shed       *obs.Counter
	inflightHW *obs.Gauge
	// batchEntries has one sample per OpBatch frame. The envelope is not
	// an op: its entries are counted, timed and sized each under its own
	// op, exactly as frames of their own would be.
	batchEntries *obs.Histogram

	muxPendingHW *obs.Gauge
	muxTimeouts  *obs.Counter
	muxPoisoned  *obs.Counter
	peerRedials  *obs.Counter

	// framesPerFlush has one sample per write syscall of runFrameWriter.
	framesPerFlush *obs.Histogram
	// replyOversize counts the replies a worker could not hand back to
	// the free list: moved out of dst into more than muxBufSize.
	replyOversize *obs.Counter
}

// csnetM holds the package's metric pointers, resolved once at init so
// the request path never touches the registry map. Index 0 of the
// per-op arrays is the UNKNOWN slot (op byte 0 or past OpPurgeV); the
// retired bytes (2, 3, 4, 6, 8 and 13) stringify as UNKNOWN and so
// share its counter.
var csnetM = func() *serverMetrics {
	r := obs.Default()
	m := &serverMetrics{
		bytesIn:      r.Counter("csnet.server.bytes_in"),
		bytesOut:     r.Counter("csnet.server.bytes_out"),
		decodeEr:     r.Counter("csnet.server.decode_errors"),
		queueHW:      r.Gauge("csnet.server.queue_depth.hw"),
		slowOps:      r.Counter("csnet.server.slow_ops"),
		shed:         r.Counter("csnet.server.shed"),
		inflightHW:   r.Gauge("csnet.server.inflight.hw"),
		batchEntries: r.Histogram("csnet.server.batch_entries"),
		muxPendingHW: r.Gauge("csnet.mux.pending.hw"),
		muxTimeouts:  r.Counter("csnet.mux.timeouts"),
		muxPoisoned:  r.Counter("csnet.mux.poisoned"),
		peerRedials:  r.Counter("csnet.peer.redials"),

		framesPerFlush: r.Histogram("csnet.mux.frames_per_flush"),
		replyOversize:  r.Counter("csnet.server.reply_oversize"),
	}
	for op := 0; op <= int(OpPurgeV); op++ {
		name := Op(op).String() // op 0 and unmapped bytes stringify as UNKNOWN
		m.ops[op] = r.Counter("csnet.server.ops." + name)
		m.latency[op] = r.Histogram("csnet.server.op_latency." + name)
	}
	return m
}()

// opSlot clamps an untrusted op byte into the metric arrays: known ops
// map to themselves, everything else to the UNKNOWN slot (0).
func opSlot(op Op) int {
	if op >= 1 && op <= OpPurgeV {
		return int(op)
	}
	return 0
}

// Slow-op logging: a server-side threshold (0 = off, the default) and
// a callback invoked — outside any lock, on the serving goroutine —
// for every op whose handler latency exceeds it. The key is reported
// as its Merkle bucket, not verbatim: enough to localize a hot range
// without writing user keys into logs.
var (
	slowOpThreshold atomic.Int64
	slowOpLog       atomic.Pointer[slowOpSink]
)

// slowOpSink is one SetSlowOp setting: the log and the Merkle geometry
// it names buckets in.
type slowOpSink struct {
	buckets int
	logf    func(op Op, bucket int, d time.Duration, traceID uint64)
}

// SetSlowOp installs the slow-op log: server ops slower than threshold
// invoke logf with the op, the key's bucket in a tree of buckets
// leaves — the served engine's Buckets(), so the bucket is one that
// node's digest has — the measured latency, and the request's trace ID
// (0 when the request carried no trace), so a logged slow op can be
// looked up in /debug/traces directly. A zero threshold or nil logf
// disables it. The previous setting is replaced atomically; in-flight
// ops may use either.
func SetSlowOp(threshold time.Duration, buckets int, logf func(op Op, bucket int, d time.Duration, traceID uint64)) {
	if threshold <= 0 || logf == nil {
		slowOpThreshold.Store(0)
		slowOpLog.Store(nil)
		return
	}
	slowOpLog.Store(&slowOpSink{buckets: buckets, logf: logf})
	slowOpThreshold.Store(int64(threshold))
}

// noteSlowOp checks one served request against the slow-op threshold.
// The fast path — logging disabled — is a single atomic load.
func noteSlowOp(op Op, key string, d time.Duration, traceID uint64) {
	t := slowOpThreshold.Load()
	if t == 0 || int64(d) < t {
		return
	}
	sink := slowOpLog.Load()
	if sink == nil {
		return
	}
	csnetM.slowOps.Inc()
	sink.logf(op, store.BucketOf(key, sink.buckets), d, traceID)
}
