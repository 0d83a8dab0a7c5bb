package obs

import (
	"bytes"
	"io"
	"testing"
)

// FuzzDecodeSnapshot holds the stats-plane decoder — it takes bytes off
// a socket (csnet OpStats) — to the promises every socket decoder in
// the repository keeps: any input yields a value or an error, never a
// panic; nothing is allocated that a length field has not paid for in
// input bytes; and the encoding being canonical, whatever decodes
// re-encodes to the input exactly. What decodes must also survive the
// three things the stats plane does with it: render, merge, look up.
//
// CI runs it for 20 s (.github/workflows/ci.yml, "fuzz decoders"); a
// crasher lands in testdata/fuzz and is committed as a regression seed.
func FuzzDecodeSnapshot(f *testing.F) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(-4)
	h := r.Histogram("h")
	for _, v := range []int64{0, 1, 17, 1 << 20, 1 << 40} {
		h.Observe(v)
	}
	f.Add(r.Snapshot().Encode())
	f.Add(Snapshot{}.Encode())
	f.Add(Snapshot{Metrics: []MetricSnapshot{{Name: "empty", Kind: KindHistogram}}}.Encode())
	// A bucket index far outside the histogram's geometry.
	f.Add(Snapshot{Metrics: []MetricSnapshot{{Name: "wild", Kind: KindHistogram,
		Hist: &HistogramSnapshot{Count: 2, Max: 9, Buckets: []Bucket{{Idx: 65535, Count: 1}}}}}}.Encode())
	f.Add([]byte{snapshotVersion, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := DecodeSnapshot(in)
		if err != nil {
			return
		}
		if len(s.Metrics) > len(in)/metricWireMin {
			t.Fatalf("decoded %d metrics from a %d-byte frame", len(s.Metrics), len(in))
		}
		buckets := 0
		for _, m := range s.Metrics {
			if m.Hist != nil {
				buckets += cap(m.Hist.Buckets)
			}
		}
		if buckets > len(in)/10 {
			t.Fatalf("decoded room for %d buckets from a %d-byte frame", buckets, len(in))
		}
		out := s.Encode()
		if !bytes.Equal(out, in) {
			t.Fatalf("re-encoded to %x, want the input %x", out, in)
		}
		if err := s.WriteText(io.Discard); err != nil {
			t.Fatalf("render: %v", err)
		}
		s.Merge(s)
		if len(s.Metrics) > 0 {
			s.Get(s.Metrics[0].Name)
		}
	})
}
