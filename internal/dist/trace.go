package dist

import (
	"sort"

	"pdcedu/internal/csnet"
	"pdcedu/internal/trace"
)

// collectSpans fans one OpTraces query out to every reachable backend
// (see askLive) and returns the union of their spans plus whatever the
// coordinator's own recorder holds for the query.
func (c *Cluster) collectSpans(mode byte, id uint64, local []trace.Span) ([]trace.Span, error) {
	spans := append([]trace.Span(nil), local...)
	err := c.askLive("traces", csnet.Request{Op: csnet.OpTraces, Value: csnet.EncodeTraceQuery(mode, id)}, func(body []byte) error {
		got, err := trace.DecodeSpans(body)
		spans = append(spans, got...)
		return err
	})
	return spans, err
}

// ClusterTrace assembles the cross-node span tree of one trace: the
// coordinator's own spans (the op root and its RPC hops) joined with
// every reachable backend's spans for the same trace ID, linked
// parent→child into a single tree whose waterfall shows the whole
// request path — coordinator fan-out, each backend's queue wait and
// handling, engine work, and any repair it triggered. Returns nil with
// no error when no node holds spans for the ID (expired from the
// rings, or never sampled). A non-nil error reports the first backend
// failure; the tree assembled from the rest is still returned.
func (c *Cluster) ClusterTrace(traceID uint64) (*trace.Tree, error) {
	spans, err := c.collectSpans(csnet.TraceQueryID, traceID, c.tracer.TraceSpans(traceID))
	trees := trace.Assemble(spans)
	for _, t := range trees {
		if t.TraceID == traceID {
			return t, err
		}
	}
	return nil, err
}

// SlowTraces assembles the tail-promoted (slow) traces visible across
// the cluster, slowest first, at most n (n <= 0 means all). Each
// node's recorder pins the whole trace of any span that crossed its
// slow threshold, so the result is the cluster's self-selected worst
// requests with their full cross-node trees.
func (c *Cluster) SlowTraces(n int) ([]*trace.Tree, error) {
	slow, err := c.collectSpans(csnet.TraceQuerySlow, 0, c.tracer.SlowSpans())
	// A pinned trace's spans may be split across nodes: a backend
	// promotes only its own spans, so fetch every participating node's
	// view of each slow trace ID to complete the trees.
	ids := make(map[uint64]struct{}, len(slow))
	for _, s := range slow {
		ids[s.TraceID] = struct{}{}
	}
	spans := slow
	for id := range ids {
		more, merr := c.collectSpans(csnet.TraceQueryID, id, c.tracer.TraceSpans(id))
		if err == nil {
			err = merr
		}
		spans = append(spans, more...)
	}
	trees := trace.Assemble(spans)
	sort.Slice(trees, func(i, j int) bool { return trees[i].Duration() > trees[j].Duration() })
	if n > 0 && len(trees) > n {
		trees = trees[:n]
	}
	return trees, err
}
