package dist

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// batchKeys builds n distinct key/value pairs with a prefix.
func batchKeys(prefix string, n int) (keys []string, values [][]byte) {
	for i := 0; i < n; i++ {
		keys = append(keys, fmt.Sprintf("%s-%d", prefix, i))
		values = append(values, []byte(fmt.Sprintf("val-%s-%d", prefix, i)))
	}
	return keys, values
}

// TestClusterBatchOps drives MSet/MGet/MDel end to end with
// replication: every batched write must be readable singly and in
// batch, and MDel must count and remove every key from all replicas.
func TestClusterBatchOps(t *testing.T) {
	handlers, addrs := startBackends(t, 3)
	c, err := NewCluster(ClusterConfig{Addrs: addrs, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 100
	keys, values := batchKeys("batch", n)
	if err := c.MSet(keys, values); err != nil {
		t.Fatal(err)
	}
	// Replication 2: each key stored twice across the backends.
	total := 0
	for _, h := range handlers {
		total += h.Len()
	}
	if total != 2*n {
		t.Errorf("backends hold %d replica copies, want %d", total, 2*n)
	}
	// Single-key reads see batched writes.
	for i, key := range keys {
		v, ok, err := c.Get(key)
		if err != nil || !ok || !bytes.Equal(v, values[i]) {
			t.Fatalf("Get(%s) after MSet = %q %v %v", key, v, ok, err)
		}
	}
	// Batched reads, including keys that do not exist.
	askKeys := append(append([]string{}, keys...), "never-set-1", "never-set-2")
	got, err := c.MGet(askKeys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("MGet found %d keys, want %d", len(got), n)
	}
	for i, key := range keys {
		if !bytes.Equal(got[key], values[i]) {
			t.Fatalf("MGet[%s] = %q, want %q", key, got[key], values[i])
		}
	}
	// Batched delete reports how many keys existed and clears all
	// replicas.
	deleted, err := c.MDel(askKeys)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != n {
		t.Errorf("MDel deleted %d keys, want %d", deleted, n)
	}
	for _, h := range handlers {
		if h.Len() != 0 {
			t.Errorf("backend still holds %d keys after MDel", h.Len())
		}
	}
	// Deleting again finds nothing.
	if deleted, err := c.MDel(keys); err != nil || deleted != 0 {
		t.Errorf("second MDel = %d %v, want 0 nil", deleted, err)
	}
}

// TestClusterMSetValidation rejects mismatched key/value lengths.
func TestClusterMSetValidation(t *testing.T) {
	_, addrs := startBackends(t, 1)
	c, err := NewCluster(ClusterConfig{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.MSet([]string{"a", "b"}, [][]byte{[]byte("x")}); err == nil {
		t.Error("MSet with mismatched lengths accepted")
	}
}

// TestClusterMGetFallbackRepair damages a key's primary behind the
// cluster's back: MGet must still find the value on another replica
// and backfill the hole, like single-key Get.
func TestClusterMGetFallbackRepair(t *testing.T) {
	handlers, addrs := startBackends(t, 3)
	c, err := NewCluster(ClusterConfig{Addrs: addrs, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("grade", []byte("A")); err != nil {
		t.Fatal(err)
	}
	primary := c.replicaSet("grade")[0]       // the replica every read asks first
	lose(handlers[primary].Engine(), "grade") // simulated data loss, not a delete
	got, err := c.MGet([]string{"grade", "missing"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got["grade"]) != "A" {
		t.Fatalf("MGet after damage = %q, want A", got["grade"])
	}
	if _, ok := got["missing"]; ok {
		t.Error("MGet invented a value for an absent key")
	}
	if handlers[primary].Len() != 1 {
		t.Error("MGet fallback did not read-repair the damaged replica")
	}
}

// TestClusterMGetDialsABrokenReplicaOnce sends an MGet whose every key
// misses on its primary and falls through to a secondary that accepts
// each connection and closes it at once. fetch resolves a backend's
// client once per call, so the whole MGet dials the secondary once, not
// once per key.
func TestClusterMGetDialsABrokenReplicaOnce(t *testing.T) {
	_, addrs := startBackends(t, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Room for a dial per key and one more, so the accept loop never
	// blocks even when every key redials.
	accepted := make(chan string, 64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn.RemoteAddr().String()
			conn.Close()
		}
	}()
	c, err := NewCluster(ClusterConfig{Addrs: []string{addrs[0], ln.Addr().String()}, Replication: 2, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var keys []string
	for i := 0; len(keys) < 50; i++ {
		if k := fmt.Sprintf("absent-%d", i); c.replicaSet(k)[0] == 0 {
			keys = append(keys, k)
		}
	}
	if _, err := c.MGet(keys); err == nil {
		t.Fatal("MGet succeeded with a secondary that answers nothing")
	}
	// The listen queue is FIFO: once a connection dialed after MGet
	// returned is accepted, every dial MGet made has been counted.
	mark, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer mark.Close()
	dials := 0
	for a := range accepted {
		if a == mark.LocalAddr().String() {
			break
		}
		dials++
	}
	if dials != 1 {
		t.Fatalf("one MGet of %d keys dialed the broken replica %d times, want 1", len(keys), dials)
	}
}

// TestClusterConcurrentBatchesNoCrossTalk runs concurrent MSet/MGet
// batches over shared multiplexed connections; every goroutine must
// read back exactly its own values. Run with -race.
func TestClusterConcurrentBatchesNoCrossTalk(t *testing.T) {
	_, addrs := startBackends(t, 3)
	c, err := NewCluster(ClusterConfig{Addrs: addrs, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const goroutines, perBatch = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys, values := batchKeys(fmt.Sprintf("g%d", g), perBatch)
			if err := c.MSet(keys, values); err != nil {
				errs <- err
				return
			}
			got, err := c.MGet(keys)
			if err != nil {
				errs <- err
				return
			}
			for i, key := range keys {
				if !bytes.Equal(got[key], values[i]) {
					errs <- fmt.Errorf("cross-talk: goroutine %d key %s = %q, want %q", g, key, got[key], values[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
