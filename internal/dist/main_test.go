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

// TestValuesSurviveTransportReuse holds three values across 10 000
// later round trips on the same backend connections: one Get returned
// to the caller, one the read cache keeps, and one an engine installed
// from a request frame. All three were cut from buffers the transport
// has recycled many times over since; none may have changed.
func TestValuesSurviveTransportReuse(t *testing.T) {
	kvs, c := startKVCluster(t, 3, ClusterConfig{Replication: 3, ReadCache: 8192}, nil)
	want := func(tag byte) []byte { return bytes.Repeat([]byte{tag, 'v'}, 100) }
	// Written through a second coordinator, so c's cache fills from the
	// reply body of the Get below, not from a caller's slice.
	addrs := make([]string, len(c.pools))
	for i, p := range c.pools {
		addrs[i] = p.Addr()
	}
	writer, err := NewCluster(ClusterConfig{Addrs: addrs, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if err := writer.Set("held", want(1)); err != nil {
		t.Fatal(err)
	}
	held, ok, err := c.Get("held")
	if err != nil || !ok {
		t.Fatalf("Get = %v %v", ok, err)
	}
	for i := 0; i < 5_000; i++ {
		key := fmt.Sprintf("churn-%d", i%512)
		if err := c.Set(key, want(byte(2+i%200))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(held, want(1)) {
		t.Fatalf("the value Get returned changed under the caller: %x…", held[:8])
	}
	if e, hit := c.cache.get("held", cacheNow()); !hit || !bytes.Equal(e.Value, want(1)) {
		t.Fatalf("the read cache's copy changed (hit=%v): %x…", hit, e.Value)
	}
	for i, kv := range kvs {
		if e, ok := kv.Engine().Get("held"); !ok || !bytes.Equal(e.Value, want(1)) {
			t.Fatalf("backend %d's engine copy changed (ok=%v)", i, ok)
		}
	}
}
