package trace

import (
	"io"
	"reflect"
	"testing"
)

// FuzzDecodeSpans holds the span-list decoder — it takes bytes off a
// socket (csnet OpTraces) — to the promises every socket decoder in the
// repository keeps: any input yields a value or an error, never a
// panic; nothing is allocated that a length field has not paid for in
// input bytes; and decode → encode → decode is a fixed point (the
// encoding is canonical but for the error flag, any nonzero byte of
// which reads as true). What decodes must also assemble and render —
// the collector hands it straight to Assemble — with no span lost,
// whatever the parent links claim.
//
// CI runs it for 20 s (.github/workflows/ci.yml, "fuzz decoders"); a
// crasher lands in testdata/fuzz and is committed as a regression seed.
func FuzzDecodeSpans(f *testing.F) {
	f.Add(EncodeSpans(nil))
	f.Add(EncodeSpans([]Span{
		{TraceID: 7, ID: 1, Start: 100, Dur: 50, Kind: KindOp, Op: "cluster.Set", Node: "n1"},
		{TraceID: 7, ID: 2, Parent: 1, Start: 110, Dur: 20, Wait: 3, Bucket: 12, Kind: KindServer, Err: true, Op: "SETV", Node: "n2", Peer: "n1"},
	}))
	// A span that is its own parent, one whose parent is absent, and two
	// that claim each other.
	f.Add(EncodeSpans([]Span{{TraceID: 1, ID: 5, Parent: 5}, {TraceID: 1, ID: 6, Parent: 99}}))
	f.Add(EncodeSpans([]Span{{TraceID: 1, ID: 5, Parent: 6}, {TraceID: 1, ID: 6, Parent: 5}, {TraceID: 1, ID: 7, Parent: 6}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, in []byte) {
		spans, err := DecodeSpans(in)
		if err != nil {
			return
		}
		if cap(spans) > len(in)/spanMinSize {
			t.Fatalf("decoded room for %d spans from a %d-byte frame", cap(spans), len(in))
		}
		out := EncodeSpans(spans)
		if len(out) != len(in) {
			t.Fatalf("re-encoded to %d bytes, want the input's %d", len(out), len(in))
		}
		again, err := DecodeSpans(out)
		if err != nil || !reflect.DeepEqual(again, spans) {
			t.Fatalf("re-decoded %+v %v, want %+v", again, err, spans)
		}
		for _, tree := range Assemble(spans) {
			walked := 0
			tree.walk(func(Span, int) { walked++ })
			if walked != tree.Len() {
				t.Fatalf("trace %x holds %d spans but its tree reaches %d", tree.TraceID, tree.Len(), walked)
			}
			tree.Waterfall(io.Discard)
		}
	})
}
