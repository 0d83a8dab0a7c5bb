package trace

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"
)

// Node is one span plus its children in an assembled trace tree.
type Node struct {
	Span     Span
	Children []*Node
}

// Tree is all collected spans of one trace, linked parent→child.
// Roots usually holds exactly one span (the coordinator op); spans
// whose parent was lost (sampled away, ring-wrapped on some node)
// surface as additional roots rather than disappearing — as does one
// span of any parent cycle a buggy or hostile node reports.
type Tree struct {
	TraceID uint64
	Roots   []*Node
	count   int
}

// Assemble links a flat span set (typically the concatenation of
// several nodes' OpTraces responses) into per-trace trees. Spans are
// deduplicated by span ID first — tail promotion copies ring spans
// into pin slots, so the same span can arrive twice from one node.
// Trees are ordered by start time; children within a span likewise.
func Assemble(spans []Span) []*Tree {
	spans = dedupe(append([]Span(nil), spans...))
	byTrace := make(map[uint64][]Span)
	for _, s := range spans {
		if s.TraceID != 0 {
			byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
		}
	}
	trees := make([]*Tree, 0, len(byTrace))
	for id, group := range byTrace {
		nodes := make(map[uint64]*Node, len(group))
		for _, s := range group {
			nodes[s.ID] = &Node{Span: s}
		}
		t := &Tree{TraceID: id, count: len(group)}
		for _, n := range nodes {
			if parent, ok := nodes[n.Span.Parent]; ok && parent != n {
				parent.Children = append(parent.Children, n)
			} else {
				t.Roots = append(t.Roots, n)
			}
		}
		t.cutCycles(group, nodes)
		for _, n := range nodes {
			sortNodes(n.Children)
		}
		sortNodes(t.Roots)
		trees = append(trees, t)
	}
	sort.Slice(trees, func(i, j int) bool { return trees[i].Start() < trees[j].Start() })
	return trees
}

// cutCycles makes every span reachable from a root. A span has one
// parent, so whatever the roots do not reach hangs off a parent cycle —
// a buggy or hostile node's report. Unreached spans are promoted to
// roots, in arrival order, until the tree shows every span.
func (t *Tree) cutCycles(group []Span, nodes map[uint64]*Node) {
	reached := 0
	t.walk(func(Span, int) { reached++ })
	if reached == len(nodes) {
		return
	}
	seen := make(map[*Node]bool, len(nodes))
	var mark func(n *Node)
	mark = func(n *Node) {
		seen[n] = true
		for _, c := range n.Children {
			mark(c)
		}
	}
	for _, r := range t.Roots {
		mark(r)
	}
	for _, s := range group {
		n := nodes[s.ID]
		if seen[n] {
			continue
		}
		parent := nodes[n.Span.Parent]
		parent.Children = slices.DeleteFunc(parent.Children, func(c *Node) bool { return c == n })
		t.Roots = append(t.Roots, n)
		mark(n)
	}
}

func sortNodes(ns []*Node) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Span.Start != ns[j].Span.Start {
			return ns[i].Span.Start < ns[j].Span.Start
		}
		return ns[i].Span.ID < ns[j].Span.ID
	})
}

// Len returns the number of spans in the tree.
func (t *Tree) Len() int { return t.count }

// Start returns the earliest span start in unix nanoseconds.
func (t *Tree) Start() int64 {
	start := int64(0)
	t.walk(func(s Span, _ int) {
		if start == 0 || s.Start < start {
			start = s.Start
		}
	})
	return start
}

// Duration returns the wall-clock extent of the trace: latest span
// end minus earliest span start.
func (t *Tree) Duration() time.Duration {
	start, end := t.Start(), int64(0)
	t.walk(func(s Span, _ int) {
		if s.End() > end {
			end = s.End()
		}
	})
	if start == 0 || end < start {
		return 0
	}
	return time.Duration(end - start)
}

// Nodes returns the distinct node identities that contributed spans,
// sorted.
func (t *Tree) Nodes() []string {
	seen := make(map[string]struct{})
	t.walk(func(s Span, _ int) {
		if s.Node != "" {
			seen[s.Node] = struct{}{}
		}
	})
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Find returns the first span (depth-first, start order) matching
// pred, or false.
func (t *Tree) Find(pred func(Span) bool) (Span, bool) {
	var hit Span
	found := false
	t.walk(func(s Span, _ int) {
		if !found && pred(s) {
			hit, found = s, true
		}
	})
	return hit, found
}

func (t *Tree) walk(fn func(s Span, depth int)) {
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		fn(n.Span, depth)
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	for _, r := range t.Roots {
		rec(r, 0)
	}
}

// Waterfall renders the trace as a text timeline: one line per span
// with its offset from trace start, duration, kind, op, node, and the
// queue-wait / bucket / peer annotations that matter when hunting a
// slow hop.
func (t *Tree) Waterfall(w io.Writer) {
	start := t.Start()
	fmt.Fprintf(w, "trace %016x  spans=%d  nodes=%d  dur=%s\n",
		t.TraceID, t.Len(), len(t.Nodes()), fmtDur(t.Duration()))
	t.walk(func(s Span, depth int) {
		off := time.Duration(0)
		if start != 0 && s.Start > start {
			off = time.Duration(s.Start - start)
		}
		fmt.Fprintf(w, "  %10s %10s  %s%s %s",
			"+"+fmtDur(off), fmtDur(time.Duration(s.Dur)),
			strings.Repeat("· ", depth), s.Kind, s.Op)
		if s.Node != "" {
			fmt.Fprintf(w, " @%s", s.Node)
		}
		if s.Peer != "" {
			fmt.Fprintf(w, " ->%s", s.Peer)
		}
		if s.Wait > 0 {
			fmt.Fprintf(w, " wait=%s", fmtDur(time.Duration(s.Wait)))
		}
		if s.Bucket >= 0 {
			fmt.Fprintf(w, " bucket=%d", s.Bucket)
		}
		if s.Err {
			fmt.Fprint(w, " ERR")
		}
		fmt.Fprintln(w)
	})
}

// fmtDur trims sub-microsecond noise off durations over 100µs so
// waterfall columns stay readable.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= 100*time.Microsecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}
