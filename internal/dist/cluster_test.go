package dist

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"pdcedu/internal/csnet"
)

// startBackends launches n csnet KV servers on loopback ports.
func startBackends(t testing.TB, n int) (handlers []*csnet.KVHandler, addrs []string) {
	t.Helper()
	for i := 0; i < n; i++ {
		h := csnet.NewKVHandler()
		srv := csnet.NewServer(h, 64)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Shutdown)
		handlers = append(handlers, h)
		addrs = append(addrs, addr)
	}
	return handlers, addrs
}

// TestClusterNoLostWrites is the acceptance load: 10k Set/Get pairs from
// 8 concurrent clients over 3 backends with replication, then a full
// readback — every write must be observable.
func TestClusterNoLostWrites(t *testing.T) {
	handlers, addrs := startBackends(t, 3)
	c, err := NewCluster(ClusterConfig{
		Addrs:       addrs,
		Replication: 2,
		Balancer:    NewRoundRobin(3),
		Timeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const clients, opsPerClient = 8, 1250
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				key := fmt.Sprintf("client-%d-op-%d", g, i)
				val := []byte(fmt.Sprintf("value-%d-%d", g, i))
				if err := c.Set(key, val); err != nil {
					errs <- err
					return
				}
				got, ok, err := c.Get(key)
				if err != nil || !ok || !bytes.Equal(got, val) {
					errs <- fmt.Errorf("read-own-write %s = %q %v %v", key, got, ok, err)
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

	// Full readback of all 10k keys through the cluster.
	for g := 0; g < clients; g++ {
		for i := 0; i < opsPerClient; i++ {
			key := fmt.Sprintf("client-%d-op-%d", g, i)
			got, ok, err := c.Get(key)
			if err != nil || !ok {
				t.Fatalf("lost write %s: %v %v", key, ok, err)
			}
			if want := []byte(fmt.Sprintf("value-%d-%d", g, i)); !bytes.Equal(got, want) {
				t.Fatalf("key %s = %q, want %q", key, got, want)
			}
		}
	}

	// Replication 2 over 3 backends: total stored keys = 2 * 10000.
	total := 0
	for _, h := range handlers {
		total += h.Len()
	}
	if want := 2 * clients * opsPerClient; total != want {
		t.Errorf("backends hold %d replica copies, want %d", total, want)
	}
}

// TestClusterShardingDisjoint checks that with replication 1 each key
// lives on exactly one backend and the ring spreads keys over all of
// them.
func TestClusterShardingDisjoint(t *testing.T) {
	handlers, addrs := startBackends(t, 4)
	c, err := NewCluster(ClusterConfig{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const keys = 400
	for i := 0; i < keys; i++ {
		if err := c.Set(fmt.Sprintf("key-%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for b, h := range handlers {
		n := h.Len()
		total += n
		if n == 0 {
			t.Errorf("backend %d owns no keys; ring is not spreading", b)
		}
	}
	if total != keys {
		t.Errorf("backends hold %d keys total, want exactly %d (replication 1)", total, keys)
	}
}

// TestClusterReadRepair deletes a key's copy from one replica behind
// the cluster's back; a Get must still succeed and backfill the
// missing replica.
func TestClusterReadRepair(t *testing.T) {
	handlers, addrs := startBackends(t, 3)
	c, err := NewCluster(ClusterConfig{Addrs: addrs, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("grade", []byte("A")); err != nil {
		t.Fatal(err)
	}
	for b, h := range handlers {
		if h.Len() == 0 {
			t.Fatalf("backend %d missing the write with replication 3", b)
		}
	}
	// Damage the ring primary — the replica a balancer-less Get tries
	// first — by purging the entry outright (simulated data loss; a
	// protocol Del would be a legitimate newer delete and tombstone the
	// key cluster-wide), so the Get below must miss there, fall through
	// to the next replica, and repair the hole.
	primary := c.replicaSet("grade")[0] // the replica a balancer-less Get tries first
	lose(handlers[primary].Engine(), "grade")
	if handlers[primary].Len() != 0 {
		t.Fatal("failed to damage primary")
	}
	got, ok, err := c.Get("grade")
	if err != nil || !ok || string(got) != "A" {
		t.Fatalf("Get after damage = %q %v %v, want A", got, ok, err)
	}
	if handlers[primary].Len() != 1 {
		t.Errorf("read-repair did not backfill the damaged replica")
	}
}

func TestClusterDel(t *testing.T) {
	_, addrs := startBackends(t, 3)
	c, err := NewCluster(ClusterConfig{Addrs: addrs, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Del("k"); err != nil || !ok {
		t.Fatalf("Del existing = %v %v, want true nil", ok, err)
	}
	if _, ok, err := c.Get("k"); err != nil || ok {
		t.Fatalf("Get after Del = %v %v, want miss", ok, err)
	}
	if ok, err := c.Del("k"); err != nil || ok {
		t.Fatalf("Del missing = %v %v, want false nil", ok, err)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{}); err == nil {
		t.Error("empty config should fail")
	}
	_, addrs := startBackends(t, 2)
	c, err := NewCluster(ClusterConfig{Addrs: addrs, Replication: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Replication() != 2 {
		t.Errorf("replication capped at %d, want len(addrs)=2", c.Replication())
	}
	if c.Backends() != 2 {
		t.Errorf("Backends() = %d, want 2", c.Backends())
	}
}
