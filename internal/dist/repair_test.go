package dist

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pdcedu/internal/csnet"
	"pdcedu/internal/obs"
	"pdcedu/internal/store"
)

// TestRepairReadsOneFramePerSource: a pass queues every value read on
// its source's burst, as MGet queues its GETVs, so the reads that
// repair keys lost on one replica reach their source as one OpBatch
// frame. Both survivors list every lost key at the same version, and
// each key's winner is the copy listed first — the same survivor for
// the whole group — so there is one source. The lossy replica's merges
// are the pass's one other batch frame.
func TestRepairReadsOneFramePerSource(t *testing.T) {
	const lost = 12
	kvs, c := startKVCluster(t, 3, ClusterConfig{Replication: 3, WriteQuorum: 3}, nil)
	keys, values := batchKeys("repair", lost)
	if err := c.MSet(keys, values); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		lose(kvs[1].Engine(), k)
	}

	entries := obs.Default().Histogram("csnet.server.batch_entries")
	before := entries.Snapshot()
	st, err := c.Rebalance()
	if err != nil || st.Streamed != lost || st.ValueFetches != lost {
		t.Fatalf("Rebalance = %+v, %v; want %d keys read and streamed", st, err, lost)
	}
	after := entries.Snapshot()
	if frames, sum := after.Count-before.Count, after.Sum-before.Sum; frames != 2 || sum != uint64(st.ValueFetches+st.Streamed) {
		t.Errorf("csnet.server.batch_entries took %d samples summing %d, want 2 (the source's reads, the merges) summing %d",
			frames, sum, st.ValueFetches+st.Streamed)
	}
	for i, k := range keys {
		if e, ok := kvs[1].Engine().Get(k); !ok || !bytes.Equal(e.Value, values[i]) {
			t.Errorf("hole %s after the pass = %q %v, want %q", k, e.Value, ok, values[i])
		}
	}
}

// TestRepairReadErrorFailsThePass: a source that answers a repair read
// with anything but a value or NotFound — here StatusError for every
// GETV, alone or in a burst — has not said the key is gone. The pass
// asks each read once more alone, then reports the failure as its
// error, naming that backend, and purges no stray copy whose owners it
// could not bring up to date.
func TestRepairReadErrorFailsThePass(t *testing.T) {
	const src = 2
	kvs, _, c := startWrappedKVCluster(t, 3, ClusterConfig{Replication: 2}, nil,
		func(i int, kv *csnet.KVHandler) csnet.Handler {
			if i != src {
				return kv
			}
			return csnet.HandlerFunc(func(req csnet.Request) csnet.Response {
				if req.Op == csnet.OpGetV {
					return csnet.Response{Status: csnet.StatusError, Value: []byte("disk unreadable")}
				}
				return kv.Serve(req)
			})
		})
	// Keys backend src does not own, each with a newer copy stranded on
	// src: src is every winner's one source.
	var keys []string
	for i := 0; len(keys) < 8; i++ {
		if k := fmt.Sprintf("stranded-%d", i); !slices.Contains(c.ReplicaSet(k), src) {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		if err := c.Set(k, []byte("owned")); err != nil {
			t.Fatal(err)
		}
		_, base, _ := kvs[c.ReplicaSet(k)[0]].Engine().AppendLoad(nil, k)
		kvs[src].Engine().Merge(k, store.Entry{Value: []byte("newer"), Version: base.Version + 1})
	}

	st, err := c.Rebalance()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("backend %d:", src)) || !strings.Contains(err.Error(), "disk unreadable") {
		t.Fatalf("Rebalance error = %v, want backend %d's refused read", err, src)
	}
	if st.ValueFetches != 2*len(keys) || st.Streamed != 0 || st.Purged != 0 {
		t.Errorf("pass = %+v, want every read sent twice (burst, then alone), nothing streamed or purged", st)
	}
	for _, k := range keys {
		if e, ok := kvs[src].Engine().Get(k); !ok || string(e.Value) != "newer" {
			t.Errorf("stray %s on backend %d = %q %v, want the unread newer copy kept", k, src, e.Value, ok)
		}
	}
}

// TestRepairReadsRefusedWhole is TestReadBurstRefusedWhole for a heal
// pass: the one holder of every winner declines their read burst whole
// — a build from before OpBatch, or admission control shedding the
// frame — so each read is asked again alone, as a plain frame, and
// every winner still streams onto the other owners.
func TestRepairReadsRefusedWhole(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames peerFrames
	}{
		{"unknown op", peerFrames{}},
		{"shed", peerFrames{busy: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kvs, c := startMixedCluster(t, tc.frames)
			keys, values := batchKeys("only-on-1", 8)
			for i, k := range keys {
				kvs[1].Engine().Set(k, values[i])
			}
			st, err := c.Rebalance()
			if err != nil || st.Streamed != 2*len(keys) {
				t.Fatalf("Rebalance = %+v, %v; want every winner streamed onto both other owners", st, err)
			}
			for i, k := range keys {
				leaf := kvs[1].Engine().Digest().Leaf(store.BucketOf(k, c.buckets))
				for b, kv := range kvs {
					if e, ok := kv.Engine().Get(k); !ok || !bytes.Equal(e.Value, values[i]) {
						t.Errorf("backend %d holds %s = %q %v, want %q", b, k, e.Value, ok, values[i])
					}
					if got := kv.Engine().Digest().Leaf(store.BucketOf(k, c.buckets)); got != leaf {
						t.Errorf("backend %d's leaf for %s = %x, want the holder's %x", b, k, got, leaf)
					}
				}
			}
		})
	}
}

// BenchmarkRebalanceHeal256 is a heal pass's bill: each op purges the
// same 256 of 4096 keys from one replica's engine, with the timer
// stopped, and times the Rebalance that streams them back — the tree
// descent, the listings, the repair reads and the merges. The backends
// run in process, so allocs/op counts their side of the pass too.
// scripts/allocgate.sh gates its allocs/op.
func BenchmarkRebalanceHeal256(b *testing.B) {
	const keys, lost = 4096, 256
	kvs, c := startKVCluster(b, 3, ClusterConfig{Replication: 3, WriteQuorum: 3}, nil)
	ks, vs := batchKeys("heal", keys)
	if err := c.MSet(ks, vs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < keys; j += keys / lost {
			lose(kvs[1].Engine(), ks[j])
		}
		b.StartTimer()
		if st, err := c.Rebalance(); err != nil || st.Streamed != lost {
			b.Fatalf("Rebalance = %+v, %v; want the %d lost keys streamed", st, err, lost)
		}
	}
}
