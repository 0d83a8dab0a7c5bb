package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/trace"
)

// spanRingSize is the generator's span capacity per worker: at the
// measured rates it holds the last several seconds of calls.
const spanRingSize = 1 << 15

// span is one generator-side span: a call into dist.Cluster, timed
// from outside the program. After the run it is linked to the
// program's own op span it contains (same trace, op's parent).
type span struct {
	ID      uint64 `json:"id"`
	TraceID uint64 `json:"trace"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	Node    string `json:"node"`
	Start   int64  `json:"start"` // unix ns
	End     int64  `json:"end"`
	Wait    int64  `json:"wait_ns,omitempty"`
}

// spanRing keeps the most recent spans of every worker in
// preallocated overwrite-oldest rings, one per worker so recording is
// an index increment and a struct store with no sharing.
type spanRing struct {
	rings [workers][]span
	next  [workers]int
}

func newSpanRing(perWorker int) *spanRing {
	r := &spanRing{}
	for i := range r.rings {
		r.rings[i] = make([]span, perWorker)
	}
	return r
}

// add records one call. A nil ring (tracing off) records nothing.
func (r *spanRing) add(w int, name string, t0, t1 time.Time) {
	if r == nil {
		return
	}
	i := r.next[w]
	r.rings[w][i%len(r.rings[w])] = span{
		ID: uint64(w+1)<<48 | uint64(i+1), Name: name, Node: "generator",
		Start: t0.UnixNano(), End: t1.UnixNano(),
	}
	r.next[w] = i + 1
}

// all returns every recorded span ordered by start time.
func (r *spanRing) all() []span {
	var out []span
	for w := range r.rings {
		n := min(r.next[w], len(r.rings[w]))
		out = append(out, r.rings[w][:n]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// collectSpans pulls what the program's own tracing recorded: the
// coordinator's ring and, over a direct connection, every running
// node's (the traffic has stopped, so the extra connections touch no
// measurement).
func (ru *run) collectSpans() error {
	ru.progSpans = append(ru.progSpans, ru.tracer.Spans()...)
	for _, n := range ru.liveNodes() {
		cl, err := csnet.Dial(n.addr, 5*time.Second)
		if err != nil {
			return err
		}
		spans, err := cl.Traces(csnet.TraceQueryAll, 0)
		cl.Close()
		if err != nil {
			return fmt.Errorf("traces of node %d: %w", n.idx, err)
		}
		ru.progSpans = append(ru.progSpans, spans...)
	}
	return nil
}

// selfTime is a span's duration minus the part of it its children
// cover: children are clipped to the parent and overlapping children
// (parallel fan-out) are counted once.
func selfTime(start, end int64, children [][2]int64) int64 {
	slices.SortFunc(children, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	covered, edge := int64(0), start
	for _, c := range children {
		lo, hi := max(c[0], edge), min(c[1], end)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return end - start - covered
}

// linkSpans attaches each root op span the coordinator recorded to the
// generator span around the call that made it: the latest generator
// span of that name starting at or before the op and ending at or
// after it. gen must be sorted by start. Linked generator spans take
// the op's trace id; the op takes the generator span as parent.
func linkSpans(gen []span, ops []*trace.Node) (linked int) {
	for _, op := range ops {
		s := op.Span
		i := sort.Search(len(gen), func(i int) bool { return gen[i].Start > s.Start })
		for i--; i >= 0 && s.Start-gen[i].Start < int64(time.Second); i-- {
			if gen[i].Name == s.Op && gen[i].TraceID == 0 && gen[i].End >= s.End() {
				gen[i].TraceID = s.TraceID
				op.Span.Parent = gen[i].ID
				linked++
				break
			}
		}
	}
	return linked
}

// layerTimes walks the assembled trees and collects, per sampled op,
// the self time of each layer boundary the program's spans mark.
type layerTimes struct {
	opSelf, rpcWire, queueWait, serverSelf, engine []float64
}

func (lt *layerTimes) walk(n *trace.Node) {
	s := n.Span
	var kids [][2]int64
	for _, c := range n.Children {
		kids = append(kids, [2]int64{c.Span.Start, c.Span.End()})
		lt.walk(c)
	}
	switch s.Kind {
	case trace.KindOp:
		lt.opSelf = append(lt.opSelf, float64(selfTime(s.Start, s.End(), kids))/1e3)
	case trace.KindRPC:
		// The wire's share of a hop: what the coordinator waited minus
		// what the server says it spent queueing and handling. The two
		// clocks are one machine's, but only durations are compared.
		for _, c := range n.Children {
			if c.Span.Kind == trace.KindServer {
				lt.rpcWire = append(lt.rpcWire, float64(s.Dur-c.Span.Dur-c.Span.Wait)/1e3)
			}
		}
	case trace.KindServer:
		lt.queueWait = append(lt.queueWait, float64(s.Wait)/1e3)
		lt.serverSelf = append(lt.serverSelf, float64(selfTime(s.Start, s.End(), kids))/1e3)
	case trace.KindEngine:
		lt.engine = append(lt.engine, float64(s.Dur)/1e3)
	}
}

// spanMetrics turns the traced half of the run into the per-layer
// self times, the tracing overhead, and bench/out/trace-<workload>.jsonl.
func (ru *run) spanMetrics(m map[string]value) error {
	trees := trace.Assemble(ru.progSpans)
	var ops []*trace.Node
	var lt layerTimes
	for _, t := range trees {
		for _, root := range t.Roots {
			if root.Span.Kind == trace.KindOp && root.Span.Node == "bench" {
				ops = append(ops, root)
			}
			lt.walk(root)
		}
	}
	gen := ru.gen.spans.all()
	linkSpans(gen, ops)
	m["dist.op_self_us"] = median(lt.opSelf)
	m["dist.rpc_wire_us"] = median(lt.rpcWire)
	m["csnet.server_queue_wait_us"] = median(lt.queueWait)
	m["csnet.server_self_us"] = median(lt.serverSelf)
	m["store.engine_us"] = median(lt.engine)

	p, t := summarize(ru.series["untraced ops_per_s"]), summarize(ru.series["traced ops_per_s"])
	m["trace.overhead_pct"] = scalar(100*(1-ratio(t.Median, p.Median)), t.N+p.N)
	return ru.writeSpans(gen, trees)
}

func (ru *run) writeSpans(gen []span, trees []*trace.Tree) error {
	dir := filepath.Join("bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+ru.wl.name+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range gen {
		if s.TraceID != 0 { // the calls whose op the program sampled
			_ = enc.Encode(s) // errors surface at Flush
		}
	}
	var emit func(n *trace.Node)
	emit = func(n *trace.Node) {
		s := n.Span
		_ = enc.Encode(span{
			ID: s.ID, TraceID: s.TraceID, Parent: s.Parent, Name: s.Kind.String() + ":" + s.Op,
			Node: s.Node, Start: s.Start, End: s.End(), Wait: s.Wait,
		})
		for _, c := range n.Children {
			emit(c)
		}
	}
	for _, t := range trees {
		for _, r := range t.Roots {
			emit(r)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
