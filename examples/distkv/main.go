// distkv is the RIT-style networks/distributed lab: a concurrent TCP
// key-value service behind a load balancer, plus a replication study
// contrasting sequential and eventual consistency, and an RPC round.
// The lab's own code lives beside it: the load-balancing strategies
// and their simulator (balance.go), ReplicatedKV (replica.go) and the
// RPC middleware (rpc.go). The coordinator, transport and engine it
// runs them against come from internal/dist, internal/csnet and
// internal/store.
package main

import (
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/dist"
	"pdcedu/internal/member"
	"pdcedu/internal/perf"
	"pdcedu/internal/store"
)

func main() {
	clientServer()
	loadBalancing()
	replication()
	rpcMiddleware()
	pipelinedBatch()
	selfHealing()
	storageEngine()
}

// storageEngine contrasts a single-lock store with the sharded,
// versioned engine on the workload that breaks a global lock: a mixed
// Get/Set stream while a listing of the whole keyspace runs
// concurrently. The one-mutex map's listing holds its one lock for the
// whole scan, stalling every writer; the sharded engine's listing
// (RangeBuckets over every bucket) locks one shard at a time. It then
// shows why versions exist: a stale replayed write loses its merge
// instead of clobbering newer data.
func storageEngine() {
	fmt.Println("== Storage engine: sharded vs single-lock ==")
	const seeded, workers, opsPerWorker = 100_000, 4, 2_000
	// run returns the total mixed-workload time and the worst single
	// write stall observed while a full-store listing loops
	// concurrently — the stall is where the single lock really hurts:
	// a Set on the map can sit behind an entire 100k-key scan,
	// while a sharded Set waits on 1/128th of the store at most.
	run := func(set func(key string, value []byte), get func(key string), list func()) (total, worstStall time.Duration) {
		for i := 0; i < seeded; i++ {
			set(fmt.Sprintf("seed:%d", i), []byte("x"))
		}
		stop := make(chan struct{})
		var lister sync.WaitGroup
		lister.Add(1)
		go func() { // a big listing loops while the writers run
			defer lister.Done()
			for {
				select {
				case <-stop:
					return
				default:
					list()
				}
			}
		}()
		start := time.Now()
		var worst atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < opsPerWorker; i++ {
					k := fmt.Sprintf("hot:%d:%d", w, i&255)
					opStart := time.Now()
					set(k, []byte("v"))
					d := int64(time.Since(opStart))
					for {
						cur := worst.Load()
						if d <= cur || worst.CompareAndSwap(cur, d) {
							break
						}
					}
					get(k)
				}
			}()
		}
		wg.Wait()
		total = time.Since(start)
		close(stop)
		lister.Wait()
		return total, time.Duration(worst.Load())
	}
	eng := store.NewSharded(store.Options{})
	every := make([]bool, eng.Buckets())
	for b := range every {
		every[b] = true
	}
	visit := func(string, []byte) bool { return true }
	flat := &lockedMap{m: map[string][]byte{}}
	flatTotal, flatStall := run(flat.set, func(k string) { flat.get(k) },
		func() { flat.rangeBuckets(every, visit) })
	shardTotal, shardStall := run(func(k string, v []byte) { eng.Set(k, v) }, func(k string) { eng.Get(k) },
		func() { eng.RangeBuckets(every, func(k string, e store.Entry) bool { return visit(k, e.Value) }) })
	t := perf.NewTable(fmt.Sprintf("%d-key store, %d writers under a concurrent listing loop", seeded, workers),
		"engine", "mixed Get/Set time", "worst single-write stall")
	t.AddRow("flat (one lock)", flatTotal.Round(time.Millisecond), flatStall.Round(time.Microsecond))
	t.AddRow("sharded", shardTotal.Round(time.Millisecond), shardStall.Round(time.Microsecond))
	fmt.Println(t.String())

	ver := eng.Set("grade", []byte("A+"))
	if _, applied := eng.Merge("grade", store.Entry{Value: []byte("C-"), Version: ver - 1}); !applied {
		e, _ := eng.Get("grade")
		fmt.Printf("stale replay (version %d) lost the merge: grade is still %q@%d\n\n",
			ver-1, e.Value, e.Version)
	}
}

// lockedMap is the single-lock store: one map behind one mutex.
type lockedMap struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (l *lockedMap) set(key string, value []byte) {
	l.mu.Lock()
	l.m[key] = append([]byte(nil), value...)
	l.mu.Unlock()
}

func (l *lockedMap) get(key string) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.m[key]
	return v, ok
}

// rangeBuckets calls fn with every entry whose key hashes into a
// bucket b with want[b] set, as the engine's RangeBuckets does, but it
// holds the one mutex for the whole scan: a writer can wait out a
// listing of the entire keyspace.
func (l *lockedMap) rangeBuckets(want []bool, fn func(key string, value []byte) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, v := range l.m {
		if want[store.BucketOf(k, len(want))] && !fn(k, v) {
			return
		}
	}
}

// clientServer starts three KV servers and drives concurrent clients
// through a consistent-hash balancer.
func clientServer() {
	fmt.Println("== Client-server with consistent-hash routing ==")
	const nServers = 3
	servers := make([]*csnet.Server, nServers)
	addrs := make([]string, nServers)
	for i := range servers {
		servers[i] = csnet.NewServer(csnet.NewKVHandler(), 32)
		addr, err := servers[i].Start("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		addrs[i] = addr
		defer servers[i].Shutdown()
	}
	ring := dist.NewConsistentHash(nServers, 64)
	var wg sync.WaitGroup
	perServer := make([]int, nServers)
	var mu sync.Mutex
	for c := 0; c < 4; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			clients := make([]*csnet.Client, nServers)
			defer func() {
				for _, cl := range clients {
					if cl != nil {
						cl.Close()
					}
				}
			}()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("user:%d:%d", c, i)
				s := ring.Pick(key)
				if clients[s] == nil {
					cl, err := csnet.Dial(addrs[s], time.Second)
					if err != nil {
						log.Fatal(err)
					}
					clients[s] = cl
				}
				// Version 0: the server stamps the write itself.
				if _, _, err := clients[s].SetV(key, []byte(key), 0); err != nil {
					log.Fatal(err)
				}
				e, ok, err := clients[s].GetV(key)
				if err != nil || !ok || string(e.Value) != key {
					log.Fatalf("get %s = %q %v %v", key, e.Value, ok, err)
				}
				mu.Lock()
				perServer[s]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	t := perf.NewTable("Requests per server (consistent hashing)", "server", "requests")
	for i, n := range perServer {
		t.AddRow(i, n)
	}
	fmt.Println(t.String())
}

// loadBalancing compares the balancer strategies on one synthetic load.
func loadBalancing() {
	fmt.Println("== Load-balancing strategies ==")
	t := perf.NewTable("10k requests over 8 servers", "strategy", "max", "min", "imbalance")
	for _, b := range []Balancer{
		NewRoundRobin(8),
		NewLeastLoaded(8),
		NewPowerOfTwo(8, 42),
		NewConsistentHash(8, 64),
	} {
		rep := SimulateLoad(b, 8, 10000, 64, 7)
		t.AddRow(rep.Strategy, rep.Max, rep.Min, rep.Imbalance)
	}
	fmt.Println(t.String())
}

// replication shows the divergence/convergence behaviour of the two
// consistency modes.
func replication() {
	fmt.Println("== Replication: sequential vs eventual consistency ==")
	seq, err := NewReplicatedKV(3, true)
	if err != nil {
		log.Fatal(err)
	}
	_ = seq.Write(1, "grade", "A")
	v, _, _ := seq.Read(2, "grade")
	fmt.Printf("sequential: write at replica 1, read at replica 2 -> %q (immediately consistent)\n", v)

	ev, err := NewReplicatedKV(3, false)
	if err != nil {
		log.Fatal(err)
	}
	_ = ev.Write(0, "grade", "B+")
	_ = ev.Write(2, "grade", "A-")
	fmt.Printf("eventual: divergent keys before gossip = %v\n", ev.Divergent())
	ev.Gossip()
	v0, _, _ := ev.Read(0, "grade")
	v1, _, _ := ev.Read(1, "grade")
	fmt.Printf("eventual: after gossip replicas agree on %q/%q (LWW)\n\n", v0, v1)
}

// rpcMiddleware demonstrates the distributed-objects layer.
func rpcMiddleware() {
	fmt.Println("== RPC middleware ==")
	srv := NewRPCServer()
	srv.Register("stats.mean", func(args []byte) ([]byte, error) {
		var xs []float64
		if err := Unmarshal(args, &xs); err != nil {
			return nil, err
		}
		s := 0.0
		for _, x := range xs {
			s += x
		}
		if len(xs) > 0 {
			s /= float64(len(xs))
		}
		return Marshal(s)
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Shutdown()
	cl, err := DialRPC(addr, time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	var mean float64
	if err := cl.Call("stats.mean", []float64{80, 90, 100}, &mean); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stats.mean([80 90 100]) = %g over real TCP\n\n", mean)
}

// pipelinedBatch contrasts lock-step round trips with the pipelined
// multiplexed transport: the same replicated workload as a loop of
// single ops versus one batched MSet/MGet per call.
func pipelinedBatch() {
	fmt.Println("== Pipelined transport: batch vs lock-step ==")
	const nServers, nKeys = 3, 500
	addrs := make([]string, nServers)
	for i := range addrs {
		srv := csnet.NewServer(csnet.NewKVHandler(), 64)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Shutdown()
		addrs[i] = addr
	}
	c, err := dist.NewCluster(dist.ClusterConfig{Addrs: addrs, Replication: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	keys := make([]string, nKeys)
	values := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("order:%d", i)
		values[i] = []byte(fmt.Sprintf("payload-%d", i))
	}

	start := time.Now()
	for i, key := range keys {
		if err := c.Set(key, values[i]); err != nil {
			log.Fatal(err)
		}
	}
	loopSet := time.Since(start)

	start = time.Now()
	if err := c.MSet(keys, values); err != nil {
		log.Fatal(err)
	}
	batchSet := time.Since(start)

	start = time.Now()
	for _, key := range keys {
		if _, ok, err := c.Get(key); err != nil || !ok {
			log.Fatalf("get %s: %v %v", key, ok, err)
		}
	}
	loopGet := time.Since(start)

	start = time.Now()
	got, err := c.MGet(keys)
	if err != nil || len(got) != nKeys {
		log.Fatalf("MGet found %d keys: %v", len(got), err)
	}
	batchGet := time.Since(start)

	t := perf.NewTable(fmt.Sprintf("%d replicated keys over %d backends", nKeys, nServers),
		"operation", "lock-step loop", "pipelined batch", "speedup")
	t.AddRow("write", loopSet.Round(time.Microsecond), batchSet.Round(time.Microsecond),
		fmt.Sprintf("%.1fx", float64(loopSet)/float64(batchSet)))
	t.AddRow("read", loopGet.Round(time.Microsecond), batchGet.Round(time.Microsecond),
		fmt.Sprintf("%.1fx", float64(loopGet)/float64(batchGet)))
	fmt.Println(t.String())

	if n, err := c.MDel(keys); err != nil || n != nKeys {
		log.Fatalf("MDel removed %d keys: %v", n, err)
	}
	fmt.Printf("MDel removed all %d keys from every replica in one batch\n", nKeys)
}

// healNode is one node of the self-healing demo: KV data plane plus
// SWIM gossip on a single port.
type healNode struct {
	addr string
	srv  *csnet.Server
	kv   *csnet.KVHandler
	ml   *member.Memberlist
}

// startHealNode boots a node. It listens first: the memberlist's
// identity is the bound address, and the server is built around the
// memberlist's handler.
func startHealNode(addr string, seeds ...string) *healNode {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	n := &healNode{addr: ln.Addr().String(), kv: csnet.NewKVHandler()}
	n.ml, err = member.New(member.Config{
		ID:               n.addr,
		ProbeInterval:    30 * time.Millisecond,
		SuspicionTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		ln.Close()
		log.Fatal(err)
	}
	n.srv = csnet.NewServer(n.ml.Handler(n.kv), 64)
	if err := n.srv.Serve(ln); err != nil {
		log.Fatal(err)
	}
	if err := n.ml.Join(seeds...); err != nil {
		log.Fatal(err)
	}
	n.ml.Start()
	return n
}

func (n *healNode) kill() {
	n.ml.Stop()
	n.srv.Shutdown()
}

// replicaCoverage counts how many of the nKeys keys are present on
// every member of their current replica set (the cluster's own
// bucket-granular placement, not a shadow ring).
func replicaCoverage(c *dist.Cluster, nodes []*healNode, nKeys int) int {
	full := 0
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("enrollment:%d", i)
		whole := true
		for _, b := range c.ReplicaSet(key) {
			if nodes[b].kv.Serve(csnet.Request{Op: csnet.OpGetV, Key: key}).Status != csnet.StatusOK {
				whole = false
				break
			}
		}
		if whole {
			full++
		}
	}
	return full
}

// selfHealing is the kill-a-node live demo: five gossiping nodes, one
// killed under load. The failure detector declares it dead, the cluster
// marks it down and keeps serving reads and quorum writes
// (queuing hints for the dead node); after a restart with an empty
// store, hint replay plus the rebalancer restore full replication.
func selfHealing() {
	fmt.Println("== Self-healing membership: kill a node under load ==")
	const nNodes, nKeys, rf, victim = 5, 400, 3, 2
	nodes := make([]*healNode, nNodes)
	addrs := make([]string, nNodes)
	nodes[0] = startHealNode("127.0.0.1:0")
	addrs[0] = nodes[0].addr
	for i := 1; i < nNodes; i++ {
		nodes[i] = startHealNode("127.0.0.1:0", addrs[0])
		addrs[i] = nodes[i].addr
	}
	defer func() {
		for _, n := range nodes {
			n.kill()
		}
	}()
	waitFor := func(what string, cond func() bool) {
		for start := time.Now(); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Since(start) > 10*time.Second {
				log.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("membership convergence", func() bool {
		for _, n := range nodes {
			if n.ml.NumAlive() != nNodes {
				return false
			}
		}
		return true
	})
	fmt.Printf("%d nodes gossiped to a full mesh\n", nNodes)

	c, err := dist.NewCluster(dist.ClusterConfig{Addrs: addrs, Replication: rf, Timeout: time.Second})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	stopWatch := c.Watch(nodes[0].ml)
	defer stopWatch()

	for i := 0; i < nKeys/2; i++ {
		if err := c.Set(fmt.Sprintf("enrollment:%d", i), []byte(fmt.Sprintf("student-%d", i))); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("killing node %d (%s) mid-load...\n", victim, addrs[victim])
	killedAt := time.Now()
	nodes[victim].kill()
	for i := nKeys / 2; i < nKeys; i++ {
		if err := c.Set(fmt.Sprintf("enrollment:%d", i), []byte(fmt.Sprintf("student-%d", i))); err != nil {
			log.Fatal(err) // rf=3 quorum=2: one dead replica never fails a write
		}
	}
	waitFor("eviction", func() bool { return c.IsDown(victim) })
	fmt.Printf("dead in %v: suspected, timed out, marked down (%d/%d backends live)\n",
		time.Since(killedAt).Round(time.Millisecond), c.Live(), nNodes)
	fmt.Printf("%d writes hinted for the dead node during the detection window\n", c.Hints(victim))

	readable := 0
	for i := 0; i < nKeys; i++ {
		if _, ok, err := c.Get(fmt.Sprintf("enrollment:%d", i)); err == nil && ok {
			readable++
		}
	}
	fmt.Printf("degraded reads: %d/%d keys still readable\n", readable, nKeys)

	fmt.Println("restarting the node with an empty store...")
	nodes[victim] = startHealNode(addrs[victim], addrs[0])
	waitFor("readmission", func() bool { return !c.IsDown(victim) })
	if _, err := c.Rebalance(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after hint replay + rebalance: %d/%d keys on their full %d-replica set\n\n",
		replicaCoverage(c, nodes, nKeys), nKeys, rf)
}
