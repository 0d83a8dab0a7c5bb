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

// readers are the read path's entry points, each asked for one key:
// Get, an MGet of the key alone, and an MGet of the key between two
// neighbours it writes first. A test of a read rule runs all three.
var readers = []struct {
	name string
	read func(c *Cluster, key string) (value []byte, ok bool, err error)
}{
	{"Get", func(c *Cluster, key string) ([]byte, bool, error) { return c.Get(key) }},
	{"MGet", func(c *Cluster, key string) ([]byte, bool, error) {
		got, err := c.MGet([]string{key})
		v, ok := got[key]
		return v, ok, err
	}},
	{"MGetAmong", func(c *Cluster, key string) ([]byte, bool, error) {
		near := []string{key + "-before", key + "-after"}
		for _, k := range near {
			if err := c.Set(k, []byte(k)); err != nil {
				return nil, false, err
			}
		}
		got, err := c.MGet([]string{near[0], key, near[1]})
		for _, k := range near {
			if string(got[k]) != k {
				return nil, false, fmt.Errorf("MGet read neighbour %q as %q", k, got[k])
			}
		}
		v, ok := got[key]
		return v, ok, err
	}},
}

// TestClusterReadRepair damages a key's primary — the replica every
// read asks first — behind the cluster's back: its copy purged
// outright (simulated data loss; a protocol Del would be a legitimate
// newer delete and tombstone the key cluster-wide), or its server
// stopped while it stays in the ring. Through each entry point the
// read must miss or fail there, fall through to the next replica, and
// repair a lost copy.
func TestClusterReadRepair(t *testing.T) {
	for _, damage := range []string{"lost copy", "primary unreachable"} {
		for _, r := range readers {
			t.Run(damage+"/"+r.name, func(t *testing.T) {
				kvs, srvs, c := startWrappedKVCluster(t, 3, ClusterConfig{Replication: 3}, nil, nil)
				if err := c.Set("grade", []byte("A")); err != nil {
					t.Fatal(err)
				}
				for b, kv := range kvs {
					if _, ok := kv.Engine().Get("grade"); !ok {
						t.Fatalf("backend %d missing the write with replication 3", b)
					}
				}
				primary := c.replicaSet("grade")[0]
				if damage == "lost copy" {
					lose(kvs[primary].Engine(), "grade")
				} else {
					srvs[primary].Shutdown()
				}
				got, ok, err := r.read(c, "grade")
				if err != nil || !ok || string(got) != "A" {
					t.Fatalf("read after damage = %q %v %v, want A", got, ok, err)
				}
				if _, ok := kvs[primary].Engine().Get("grade"); !ok && damage == "lost copy" {
					t.Errorf("read-repair did not backfill the damaged replica")
				}
			})
		}
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
	if n := len(c.ReplicaSet("k")); n != 2 {
		t.Errorf("replication capped at %d, want len(addrs)=2", n)
	}
}
