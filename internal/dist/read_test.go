package dist

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pdcedu/internal/csnet"
	"pdcedu/internal/obs"
)

// TestMGetOneFramePerBackend: MGet queues each key's GETV on its
// primary's burst, so every backend that is primary for several keys
// gets them as one OpBatch frame — one csnet.server.batch_entries
// sample per backend, the samples summing to the keys sent.
func TestMGetOneFramePerBackend(t *testing.T) {
	_, c := startKVCluster(t, 3, ClusterConfig{Replication: 2}, nil)
	keys, values := batchKeys("frame", 30)
	if err := c.MSet(keys, values); err != nil {
		t.Fatal(err)
	}
	perPrimary := map[int]int{}
	for _, k := range keys {
		perPrimary[c.replicaSet(k)[0]]++
	}
	for b := range c.pools {
		if perPrimary[b] < 2 {
			t.Fatalf("backend %d is primary for %d of the keys; the test needs every backend to get a burst", b, perPrimary[b])
		}
	}

	entries := obs.Default().Histogram("csnet.server.batch_entries")
	before := entries.Snapshot()
	found, err := c.MGet(keys)
	if err != nil || len(found) != len(keys) {
		t.Fatalf("MGet found %d of %d: %v", len(found), len(keys), err)
	}
	for i, k := range keys {
		if !bytes.Equal(found[k], values[i]) {
			t.Errorf("MGet[%s] = %q, want %q", k, found[k], values[i])
		}
	}
	after := entries.Snapshot()
	if frames, sum := after.Count-before.Count, after.Sum-before.Sum; frames != uint64(len(c.pools)) || sum != uint64(len(keys)) {
		t.Errorf("csnet.server.batch_entries took %d samples summing %d, want %d (one per backend) summing %d",
			frames, sum, len(c.pools), len(keys))
	}
}

// TestReadBurstRefusedWhole is TestBurstDeclinedByOldPeer for reads: a
// primary that answers an MGet's frame as a whole — "unknown op" from
// a build before OpBatch, or StatusBusy from admission control — gave
// no key an answer, so each of them falls through to the next live
// replica and is still returned. The refusal is not a miss: nothing
// from it is cached, and nothing is read-repaired onto the replica
// that sent it.
func TestReadBurstRefusedWhole(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames peerFrames
		cause  func(error) bool
	}{
		{"unknown op", peerFrames{}, func(err error) bool { return strings.Contains(err.Error(), "unknown op") }},
		{"shed", peerFrames{busy: true}, func(err error) bool { return errors.Is(err, csnet.ErrBusy) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kvs, writer := startMixedCluster(t, tc.frames)
			c := coordinatorOver(t, writer, ClusterConfig{Replication: 3, ReadCache: 64})
			var keys []string
			var values [][]byte
			onOld := 0
			for i := 0; onOld < 4; i++ {
				k := fmt.Sprintf("refused-%d", i)
				if c.replicaSet(k)[0] == 1 {
					onOld++
				}
				keys, values = append(keys, k), append(values, []byte("val-"+k))
			}
			// The refusing replica declines the write burst too: its
			// engine stays empty, the other two hold every key.
			var pw *PartialWriteError
			if err := writer.MSet(keys, values); !errors.As(err, &pw) || !tc.cause(pw.Causes[1]) {
				t.Fatalf("MSet = %v, want a *PartialWriteError caused by backend 1's refusal", err)
			}

			found, err := c.MGet(keys)
			if err != nil || len(found) != len(keys) {
				t.Fatalf("MGet found %d of %d: %v", len(found), len(keys), err)
			}
			for i, k := range keys {
				if !bytes.Equal(found[k], values[i]) {
					t.Errorf("MGet[%s] = %q, want %q", k, found[k], values[i])
				}
				want, _ := kvs[0].Engine().Get(k)
				if e, hit := c.cache.get(k); !hit || e.Tombstone || e.Version != want.Version || !bytes.Equal(e.Value, values[i]) {
					t.Errorf("cache for %s = %+v (hit=%v), want the live replicas' version %d", k, e, hit, want.Version)
				}
			}
			if n := kvs[1].Len(); n != 0 {
				t.Errorf("the refusing replica holds %d keys: a refusal was read-repaired as a miss", n)
			}
		})
	}
}
