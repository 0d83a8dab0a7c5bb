package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/dist"
	"pdcedu/internal/obs"
	"pdcedu/internal/store"
)

// The ladder pushes the same 128-byte versioned Set/Get through each
// layer in turn, in this process, so the distance between an engine
// write and a replicated Set is an itemised bill. Every rung is timed
// from outside, around calls into the layer's public functions, in
// ladderBatches batches of a fixed op count; the rung is the median
// batch. Self times are differences of adjacent rungs.
const (
	ladderBatches = 9
	ladderKeys    = 20_000 // keys in the store rungs
)

var sink any // keeps measured results alive

// rung times fn (which performs count ops) ladderBatches times and
// returns the median cost per op in nanoseconds.
func rung(count int, fn func()) value { return rungAfter(count, func() {}, fn) }

// rungAfter is rung with an untimed prep step before every batch.
func rungAfter(count int, prep, fn func()) value {
	per := make([]float64, ladderBatches)
	for b := range per {
		prep()
		start := time.Now()
		fn()
		per[b] = float64(time.Since(start)) / float64(count)
	}
	return median(per)
}

func scale(v value, f float64) value {
	return value{V: v.V * f, N: v.N, Q1: v.Q1 * f, Q3: v.Q3 * f, HasQ: v.HasQ}
}

func diff(a, b value) value { return scalar(a.V-b.V, min(a.N, b.N)) }

// runLadder measures every ladder rung, using dir for the durable
// store rungs.
func runLadder(dir string) (map[string]value, error) {
	m := map[string]value{}
	keys := make([]string, ladderKeys)
	for i := range keys {
		keys[i] = keyName(i)
	}
	val := makeValue(keys[0], 1)
	if err := ladderStore(m, filepath.Join(dir, "ladder"), keys, val); err != nil {
		return nil, err
	}
	if err := ladderCsnet(m, keys, val); err != nil {
		return nil, err
	}
	if err := ladderDist(m, keys, val); err != nil {
		return nil, err
	}
	c, h := obs.NewCounter(), obs.NewHistogram()
	m["obs.counter_add_ns"] = rung(200_000, func() {
		for i := 0; i < 200_000; i++ {
			c.Add(1)
		}
	})
	m["obs.hist_observe_ns"] = rung(200_000, func() {
		for i := 0; i < 200_000; i++ {
			h.Observe(int64(i))
		}
	})
	m["store.wal_self_ns"] = diff(m["store.wal_set_ns"], m["store.mem_set_ns"])
	wire := m["csnet.rtt_serial_us"].V - (m["csnet.handler_set_ns"].V+m["csnet.codec_ns"].V)/1e3
	m["csnet.wire_self_us"] = scalar(wire, ladderBatches)
	m["dist.coord_self_us"] = diff(m["dist.rf1_set_us"], m["csnet.rtt_serial_us"])
	m["dist.fanout_self_us"] = diff(m["dist.rf3_set_us"], m["dist.rf1_set_us"])
	return m, nil
}

// ladderStore: the engine in memory, then behind the WAL, then its
// snapshot, recovery and digest costs.
func ladderStore(m map[string]value, dir string, keys []string, val []byte) error {
	mem := store.NewSharded(store.Options{})
	ver := uint64(1)
	setAll := func(eng *store.Sharded) func() {
		return func() {
			for _, k := range keys {
				ver++
				eng.Merge(k, store.Entry{Value: val, Version: ver})
			}
		}
	}
	m["store.mem_set_ns"] = rung(len(keys), setAll(mem))
	m["store.mem_get_ns"] = rung(len(keys), func() {
		for _, k := range keys {
			sink, _ = mem.Get(k)
		}
	})
	m["store.digest_us"] = scale(rungAfter(1, func() {
		for _, k := range keys[:256] { // dirty up to 256 Merkle leaves
			ver++
			mem.Merge(k, store.Entry{Value: val, Version: ver})
		}
	}, func() { sink = mem.Digest().Root() }), 1e-3)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	wo := store.WALOptions{Dir: dir, Fsync: store.FsyncInterval, Interval: 100 * time.Millisecond}
	dur, err := store.OpenSharded(store.Options{}, wo)
	if err != nil {
		return err
	}
	m["store.wal_set_ns"] = rung(len(keys), setAll(dur))
	per100k := 100_000 / float64(len(keys)) / 1e6 // ns per batch -> ms per 100k keys
	var snapErr error
	// A snapshot only rewrites shards with new records, so every batch
	// first rewrites every key.
	m["store.snapshot_ms_per_100k"] = scale(rungAfter(1, setAll(dur), func() {
		if err := dur.Snapshot(); err != nil {
			snapErr = err
		}
	}), per100k)
	if snapErr != nil {
		return snapErr
	}
	// Recovery of a snapshot plus a log tail of the same size, timing
	// only OpenSharded. Every open leaves a new segment per shard
	// behind, so each batch opens its own copy of the directory and all
	// batches replay the same bytes.
	setAll(dur)()
	if err := dur.Close(); err != nil {
		return err
	}
	times := make([]float64, ladderBatches)
	allocs := make([]float64, ladderBatches)
	var ms0, ms1 runtime.MemStats
	for b := range times {
		wo.Dir = fmt.Sprintf("%s-copy%d", dir, b)
		if err := os.CopyFS(wo.Dir, os.DirFS(dir)); err != nil {
			return err
		}
		defer os.RemoveAll(wo.Dir)
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		eng, err := store.OpenSharded(store.Options{}, wo)
		times[b] = float64(time.Since(start))
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return err
		}
		if eng.Len() != len(keys) {
			return fmt.Errorf("ladder: recovered %d keys, want %d", eng.Len(), len(keys))
		}
		allocs[b] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(keys))
		if err := eng.Close(); err != nil {
			return err
		}
	}
	m["store.recover_ms_per_100k"] = scale(median(times), per100k)
	m["store.recover_allocs_per_key"] = median(allocs)
	return nil
}

// ladderCsnet: the codec alone, the handler without a socket, then a
// real loopback round trip, one in flight and sixteen.
func ladderCsnet(m map[string]value, keys []string, val []byte) error {
	const n = 20_000
	req := csnet.Request{Op: csnet.OpSetV, Key: keys[0], Value: val, Version: 7}
	resp := csnet.Response{Status: csnet.StatusOK, Version: 7}
	var codecErr error
	m["csnet.codec_ns"] = rung(n, func() {
		for i := 0; i < n; i++ {
			b, err := csnet.EncodeRequest(req)
			if err != nil {
				codecErr = err
			}
			if _, err = csnet.DecodeRequest(b); err != nil {
				codecErr = err
			}
			if _, err = csnet.DecodeResponseV(csnet.EncodeResponseV(resp)); err != nil {
				codecErr = err
			}
		}
	})
	if codecErr != nil {
		return codecErr
	}
	kv := csnet.NewKVHandler()
	ver := uint64(1)
	m["csnet.handler_set_ns"] = rung(n, func() {
		for i := 0; i < n; i++ {
			ver++
			sink = kv.Serve(csnet.Request{Op: csnet.OpSetV, Key: keys[i%len(keys)], Value: val, Version: ver})
		}
	})
	m["csnet.handler_get_ns"] = rung(n, func() {
		for i := 0; i < n; i++ {
			sink = kv.Serve(csnet.Request{Op: csnet.OpGetV, Key: keys[i%len(keys)]})
		}
	})

	srv := csnet.NewServer(kv, 16)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Shutdown()
	cl, err := csnet.Dial(addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()
	const rtts = 1000
	var rttErr error
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	serial := rung(rtts, func() {
		for i := 0; i < rtts; i++ {
			ver++
			if _, err := cl.Send(csnet.Request{Op: csnet.OpSetV, Key: keys[i], Value: val, Version: ver}).ResponseV(); err != nil {
				rttErr = err
			}
		}
	})
	runtime.ReadMemStats(&ms1)
	m["csnet.rtt_serial_us"] = scale(serial, 1e-3)
	m["csnet.allocs_per_rtt"] = scalar(float64(ms1.Mallocs-ms0.Mallocs)/(rtts*ladderBatches), rtts*ladderBatches)
	const depth = 16
	m["csnet.rtt_pipelined_us"] = scale(rung(rtts*depth/4, func() {
		var calls [depth]*csnet.Call
		for i := 0; i < rtts/4; i++ {
			for j := range calls {
				ver++
				calls[j] = cl.Send(csnet.Request{Op: csnet.OpSetV, Key: keys[i*depth+j], Value: val, Version: ver})
			}
			for _, c := range calls {
				if _, err := c.ResponseV(); err != nil {
					rttErr = err
				}
			}
		}
	}), 1e-3)
	return rttErr
}

// ladderDist: the coordinator over three in-process loopback servers,
// unreplicated and at rf=3, single ops and 100-key batches.
func ladderDist(m map[string]value, keys []string, val []byte) error {
	var addrs []string
	for i := 0; i < numNodes; i++ {
		srv := csnet.NewServer(csnet.NewKVHandler(), 16)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Shutdown()
		addrs = append(addrs, addr)
	}
	open := func(rf, cache int) (*dist.Cluster, error) {
		return dist.NewCluster(dist.ClusterConfig{Addrs: addrs, Replication: rf, ReadCache: cache})
	}
	rf1, err := open(1, 0)
	if err != nil {
		return err
	}
	defer rf1.Close()
	rf3, err := open(numNodes, 0)
	if err != nil {
		return err
	}
	defer rf3.Close()
	cached, err := open(numNodes, 1024)
	if err != nil {
		return err
	}
	defer cached.Close()

	const picks = 100_000
	m["dist.pick_ns"] = rung(picks, func() {
		for i := 0; i < picks; i++ {
			sink = rf3.ReplicaSet(keys[i%len(keys)])
		}
	})
	const ops = 1000
	var opErr error
	setLoop := func(c *dist.Cluster) func() {
		return func() {
			for i := 0; i < ops; i++ {
				if err := c.Set(keys[i], val); err != nil {
					opErr = err
				}
			}
		}
	}
	m["dist.rf1_set_us"] = scale(rung(ops, setLoop(rf1)), 1e-3)
	m["dist.rf3_set_us"] = scale(rung(ops, setLoop(rf3)), 1e-3)
	m["dist.rf3_get_us"] = scale(rung(ops, func() {
		for i := 0; i < ops; i++ {
			if _, ok, err := rf3.Get(keys[i]); err != nil || !ok {
				opErr = fmt.Errorf("ladder: rf3 get %s: ok=%v err=%v", keys[i], ok, err)
			}
		}
	}), 1e-3)
	if err := cached.Set(keys[0], val); err != nil {
		return err
	}
	m["dist.cache_hit_get_ns"] = rung(picks, func() {
		for i := 0; i < picks; i++ {
			if _, ok, err := cached.Get(keys[0]); err != nil || !ok {
				opErr = fmt.Errorf("ladder: cached get: ok=%v err=%v", ok, err)
			}
		}
	})
	const batch, rounds = 100, 10
	vals := make([][]byte, batch)
	for i := range vals {
		vals[i] = val
	}
	m["dist.mset100_us_per_key"] = scale(rung(batch*rounds, func() {
		for r := 0; r < rounds; r++ {
			if err := rf3.MSet(keys[r*batch:(r+1)*batch], vals); err != nil {
				opErr = err
			}
		}
	}), 1e-3)
	m["dist.mget100_us_per_key"] = scale(rung(batch*rounds, func() {
		for r := 0; r < rounds; r++ {
			got, err := rf3.MGet(keys[r*batch : (r+1)*batch])
			if err != nil || len(got) != batch {
				opErr = fmt.Errorf("ladder: mget: %d keys, err=%v", len(got), err)
			}
		}
	}), 1e-3)
	// A converged cluster: the pass is a root exchange and nothing else.
	if _, err := rf3.Rebalance(); err != nil {
		return err
	}
	m["dist.rebalance_steady_us"] = scale(rung(1, func() {
		if _, err := rf3.Rebalance(); err != nil {
			opErr = err
		}
	}), 1e-3)
	return opErr
}
