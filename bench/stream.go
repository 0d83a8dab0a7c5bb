package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"
)

const (
	numKeys   = 200_000 // preloaded keyspace
	workers   = 8       // closed-loop client goroutines
	valueSize = 128     // bytes per value
	zipfS     = 1.2     // skew of the zipf workloads
)

// workload is one traffic mix. Every field is an input property the
// system's behaviour depends on; none is visible to the system except
// through the requests it produces (and the two deployment settings).
type workload struct {
	name     string
	readFrac float64 // share of ops that are Gets
	zipf     bool    // zipf(s=1.2) ranks instead of uniform keys
	// Deployment settings of the run.
	readCache     int   // ClusterConfig.ReadCache entries (0 = off)
	snapshotEvery int64 // distnode -snapshot-every bytes (0 = node default)
	// outage is how long traffic runs on the two survivors in each heal
	// cycle: it sets how many writes the restarted node has to catch up on.
	outage time.Duration
	// extra workloads run only when named with -workload: they are not in
	// BENCHMARK.json, so the driver neither runs nor gates them.
	extra bool
}

var workloads = []workload{
	{name: "read-heavy-uniform", readFrac: 0.95, outage: 500 * time.Millisecond},
	{name: "write-heavy-uniform", readFrac: 0.20, snapshotEvery: 65536, outage: time.Second},
	{name: "hot-read-zipf-cached", readFrac: 0.95, zipf: true, readCache: 4096, outage: 500 * time.Millisecond, extra: true},
}

// shipped are the workloads BENCHMARK.json lists.
func shipped() []workload {
	var out []workload
	for _, w := range workloads {
		if !w.extra {
			out = append(out, w)
		}
	}
	return out
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// keyName is the i-th key of the keyspace.
func keyName(i int) string { return fmt.Sprintf("k%08d", i) }

// makeValue builds the self-describing 128-byte value "key|seq|pad".
// A fresh slice every time: the coordinator's read cache and hint
// queue retain the slice they are handed.
func makeValue(key string, seq uint32) []byte {
	v := make([]byte, 0, valueSize)
	v = append(v, key...)
	v = append(v, '|')
	v = strconv.AppendUint(v, uint64(seq), 10)
	v = append(v, '|')
	for len(v) < valueSize {
		v = append(v, 'x')
	}
	return v
}

// parseValue splits a value built by makeValue. ok is false for
// anything else — wrong length, missing separators, non-numeric seq.
func parseValue(v []byte) (key string, seq uint32, ok bool) {
	if len(v) != valueSize {
		return "", 0, false
	}
	i := 0
	for i < len(v) && v[i] != '|' {
		i++
	}
	j := i + 1
	for j < len(v) && v[j] != '|' {
		j++
	}
	if j >= len(v) {
		return "", 0, false
	}
	n, err := strconv.ParseUint(string(v[i+1:j]), 10, 32)
	if err != nil {
		return "", 0, false
	}
	return string(v[:i]), uint32(n), true
}

// opStream is one worker's deterministic op sequence: the same
// (seed, worker, workload) always yields the same ops. Sets only ever
// touch keys congruent to the worker id mod workers, so exactly one
// goroutine writes any key and the last acked value per key is known.
type opStream struct {
	id       int
	readFrac float64
	rng      *rand.Rand
	zipf     *rand.Zipf // nil for uniform
}

func newOpStream(seed int64, id int, readFrac float64, zipf bool) *opStream {
	// Distinct odd multiplier per worker keeps the streams apart while
	// staying a pure function of (seed, id).
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(id)*7919 + 1))
	s := &opStream{id: id, readFrac: readFrac, rng: rng}
	if zipf {
		s.zipf = rand.NewZipf(rng, zipfS, 1, numKeys-1)
	}
	return s
}

// next returns the next op: a Get of any key, or a Set of one of this
// worker's keys.
func (s *opStream) next() (get bool, key int) {
	get = s.rng.Float64() < s.readFrac
	if s.zipf != nil {
		key = int(s.zipf.Uint64())
	} else {
		key = s.rng.Intn(numKeys)
	}
	if !get {
		key = key - key%workers + s.id
	}
	return get, key
}
