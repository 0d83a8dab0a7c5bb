package main

import (
	"fmt"
	"regexp"
	"strconv"
	"testing"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/dist"
)

// TestDistnodeRestartRecovery is the durability E2E: a three-node
// cluster with -data-dir takes a full write load, one node is killed
// and diverges (updates and deletes land on the survivors), then the
// node restarts on the same address and data directory. The restart
// must reload its pre-crash state locally — the recovery log line and
// direct reads prove it — and the catch-up must ride the Merkle digest
// exchange: the anti-entropy pass streams only the divergence window,
// with frame counts pinned far below a full re-stream of the keyspace
// (the pre-WAL behavior, where a restarted node came back empty and
// every key had to travel).
func TestDistnodeRestartRecovery(t *testing.T) {
	dirs := [3]string{t.TempDir(), t.TempDir(), t.TempDir()}
	durable := func(i int, extra ...string) []string {
		return append([]string{"-quiet", "-data-dir", dirs[i], "-fsync", "interval"}, extra...)
	}
	addr0, _, stop0 := startNode(t, durable(0)...)
	defer stop0()
	addr1, _, stop1 := startNode(t, durable(1, "-join", addr0)...)
	addr2, _, stop2 := startNode(t, durable(2, "-join", addr0)...)
	defer stop2()
	addrs := []string{addr0, addr1, addr2}

	// Baseline: every key fully replicated, so each node's WAL holds the
	// whole keyspace.
	const keys = 2000
	ks := make([]string, keys)
	vs := make([][]byte, keys)
	for i := range ks {
		ks[i] = fmt.Sprintf("restart-%04d", i)
		vs[i] = []byte(fmt.Sprintf("baseline-%d", i))
	}
	full, err := dist.NewCluster(dist.ClusterConfig{Addrs: addrs, Replication: 3, WriteQuorum: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := full.MSet(ks, vs); err != nil {
		full.Close()
		t.Fatal(err)
	}
	full.Close()

	// Kill node 1, then write the divergence window through a
	// coordinator that only knows the survivors: 40 overwrites and 10
	// deletes node 1 will not see until anti-entropy repairs it.
	stop1()
	const updates, deletes = 40, 10
	part, err := dist.NewCluster(dist.ClusterConfig{Addrs: []string{addr0, addr2}, Replication: 2, WriteQuorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < updates; i++ {
		if err := part.Set(ks[i], []byte(fmt.Sprintf("updated-%d", i))); err != nil {
			t.Fatalf("divergence set %d: %v", i, err)
		}
	}
	for i := 0; i < deletes; i++ {
		if ok, err := part.Del(ks[1000+i]); err != nil || !ok {
			t.Fatalf("divergence del %d = %v %v", i, ok, err)
		}
	}
	part.Close()

	// Restart node 1 on its old address and data directory. The reload
	// happens before the node serves, so the ready signal means the
	// recovered state is already queryable.
	raddr, rlogs, rstop := startNode(t, durable(1, "-join", addr0, "-addr", addr1)...)
	defer rstop()
	if raddr != addr1 {
		t.Fatalf("restarted node bound %s, want its old identity %s", raddr, addr1)
	}
	recRE := regexp.MustCompile(`recovered (\d+) WAL records`)
	m := recRE.FindStringSubmatch(rlogs.String())
	if m == nil {
		t.Fatalf("no recovery line in restart logs:\n%s", rlogs.String())
	}
	walN, _ := strconv.Atoi(m[1])
	if walN < keys {
		t.Fatalf("restart recovered %d WAL records, want >= %d", walN, keys)
	}
	// The same line carries the cleaning trigger in force: the log just
	// replayed counts toward it, against the default floor (-snapshot-every
	// 8 MiB × 128 shards, far above twice this image).
	paceRE := regexp.MustCompile(`(\d+) log bytes on disk, cleaning at (\d+)`)
	if pm := paceRE.FindStringSubmatch(rlogs.String()); pm == nil {
		t.Fatalf("no cleaning trigger in the recovery line:\n%s", rlogs.String())
	} else if logBytes, _ := strconv.Atoi(pm[1]); logBytes < walN*30 || pm[2] != strconv.Itoa(8<<20*128) {
		t.Fatalf("recovery line reports %s log bytes after %d records, threshold %s; want the replayed log counted and the 1 GiB floor", pm[1], walN, pm[2])
	}
	// Local reload, not a re-stream: a key nobody touched during the
	// outage is served from the recovered WAL before any rebalance runs.
	cl, err := csnet.Dial(addr1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if e, ok, err := cl.GetV(ks[500]); err != nil || !ok || string(e.Value) != "baseline-500" {
		t.Fatalf("untouched key after reload = %+v %v %v, want baseline-500", e, ok, err)
	}
	// The stale copy is still stale — catch-up has not run yet.
	if e, ok, _ := cl.GetV(ks[0]); !ok || string(e.Value) != "baseline-0" {
		t.Fatalf("pre-repair read = %+v %v, want the stale baseline copy", e, ok)
	}

	// Catch-up: one digest-driven anti-entropy pass must repair exactly
	// the divergence window. The frame pins are the point — with 1024
	// buckets the descent costs at most 3 backends x 11 levels of
	// OpTreeV, listings are one pipelined OpRangeV per backend, and the
	// keys listed track the ~50 divergent buckets (about 2 keys per
	// bucket per owner), not the 2000-key keyspace.
	c2, err := dist.NewCluster(dist.ClusterConfig{Addrs: addrs, Replication: 3, WriteQuorum: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st, err := c2.Rebalance()
	if err != nil {
		t.Fatalf("catch-up pass: %v", err)
	}
	if st.Streamed < updates+deletes || st.Streamed > updates+deletes+10 {
		t.Fatalf("catch-up streamed %d entries, want ~%d (the divergence window, not the keyspace)",
			st.Streamed, updates+deletes)
	}
	if st.DigestFrames < 3 || st.DigestFrames > 33 {
		t.Errorf("catch-up used %d digest frames, want 3..33 (3 backends x <= 11 tree levels)", st.DigestFrames)
	}
	if st.ListingFrames > 3 {
		t.Errorf("catch-up used %d listing frames, want <= 3 (one pipelined OpRangeV per backend)", st.ListingFrames)
	}
	if st.BucketsDiffed == 0 || st.BucketsDiffed > updates+deletes {
		t.Errorf("catch-up diffed %d buckets, want 1..%d", st.BucketsDiffed, updates+deletes)
	}
	if st.KeysListed == 0 || st.KeysListed > 900 {
		t.Errorf("catch-up listed %d keys, want a divergence-sized listing (< 900), not the %d-key keyspace",
			st.KeysListed, keys)
	}

	// The restarted node now serves the post-outage truth directly.
	if e, ok, err := cl.GetV(ks[0]); err != nil || !ok || string(e.Value) != "updated-0" {
		t.Fatalf("repaired key = %+v %v %v, want updated-0", e, ok, err)
	}
	for i := 0; i < deletes; i++ {
		if _, ok, err := cl.GetV(ks[1000+i]); err != nil || ok {
			t.Fatalf("deleted key %d resurrected on the restarted node (ok=%v err=%v)", i, ok, err)
		}
	}
	// A second pass finds a converged cluster: pure root exchange, no
	// listings, nothing streamed — and the tombstones stay tombstones.
	st, err = c2.Rebalance()
	if err != nil || st.Streamed != 0 {
		t.Fatalf("steady-state pass = %d %v, want 0 nil", st.Streamed, err)
	}
	if st.ListingFrames != 0 || st.KeysListed != 0 {
		t.Errorf("steady-state pass listed keys: %+v", st)
	}
	if _, ok, _ := cl.GetV(ks[1000]); ok {
		t.Fatal("steady-state pass resurrected a deleted key")
	}
}
