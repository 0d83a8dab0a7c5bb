package dist

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"pdcedu/internal/csnet"
)

// TestMain runs the whole suite with the transport's poison-on-release
// on (see csnet.TestPoisonRelease): a value the coordinator, its read
// cache or a hint still holds after the transport recycled the bytes
// under it would read back as 0xDB.
func TestMain(m *testing.M) {
	csnet.TestPoisonRelease = true
	os.Exit(m.Run())
}

// coordinatorOver is a second coordinator over c's backends, so what
// one of the two reads — and what its cache fills with — comes from
// reply frames, not from a caller's slice the other handed to Set.
func coordinatorOver(t *testing.T, c *Cluster, cfg ClusterConfig) *Cluster {
	t.Helper()
	for _, p := range c.pools {
		cfg.Addrs = append(cfg.Addrs, p.Addr())
	}
	o, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.Close() })
	return o
}

// TestValuesSurviveTransportReuse holds values across later round
// trips on the same backend connections: one Get returned to the
// caller, more that MGet returned from entries of multi-entry frames,
// the read cache's copies of them, and an engine's record installed
// from a request frame. A read clones its value out of the reply and
// hands the body back, so all of them were cut from buffers the
// transport has since recycled — 10 000 write and cached-read round
// trips, then 20 read bursts over the wire — and poisoned on release;
// none may have changed.
func TestValuesSurviveTransportReuse(t *testing.T) {
	kvs, c := startKVCluster(t, 3, ClusterConfig{Replication: 3, ReadCache: 8192}, nil)
	writer := coordinatorOver(t, c, ClusterConfig{Replication: 3})
	want := func(tag byte, n int) []byte { return bytes.Repeat([]byte{tag, 'v'}, n) }
	head := func(b []byte) []byte { return b[:min(len(b), 8)] }
	held, _ := batchKeys("held", 9)
	for i, k := range held {
		if err := writer.Set(k, want(byte(1+i), 100)); err != nil {
			t.Fatal(err)
		}
	}
	const bursts, perBurst = 20, 16
	burst := func(r int) []string {
		keys, _ := batchKeys(fmt.Sprintf("burst-%d", r), perBurst)
		return keys
	}
	for r := 0; r < bursts; r++ {
		values := make([][]byte, perBurst)
		for i := range values {
			values[i] = want(byte(100+r), 50+10*i)
		}
		if err := writer.MSet(burst(r), values); err != nil {
			t.Fatal(err)
		}
	}

	got := make(map[string][]byte, len(held))
	v, ok, err := c.Get(held[0])
	if err != nil || !ok {
		t.Fatalf("Get = %v %v", ok, err)
	}
	got[held[0]] = v
	found, err := c.MGet(held[1:])
	if err != nil || len(found) != len(held)-1 {
		t.Fatalf("MGet found %d of %d: %v", len(found), len(held)-1, err)
	}
	for k, v := range found {
		got[k] = v
	}

	for i := 0; i < 5_000; i++ {
		key := fmt.Sprintf("churn-%d", i%512)
		if err := c.Set(key, want(byte(2+i%200), 100)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < bursts; r++ {
		if found, err := c.MGet(burst(r)); err != nil || len(found) != perBurst {
			t.Fatalf("read burst %d found %d of %d: %v", r, len(found), perBurst, err)
		}
	}
	for i, k := range held {
		w := want(byte(1+i), 100)
		if !bytes.Equal(got[k], w) {
			t.Errorf("the value read for %s changed under the caller: %x…", k, head(got[k]))
		}
		if e, hit := c.cache.get(k); !hit || !bytes.Equal(e.Value, w) {
			t.Errorf("the read cache's copy of %s changed (hit=%v): %x…", k, hit, head(e.Value))
		}
		for b, kv := range kvs {
			if e, ok := kv.Engine().Get(k); !ok || !bytes.Equal(e.Value, w) {
				t.Errorf("backend %d's engine copy of %s changed (ok=%v)", b, k, ok)
			}
		}
	}
}
