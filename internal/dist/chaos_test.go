package dist

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"pdcedu/internal/store"
)

// TestAntiEntropyChaos is the divergence chaos property test: a
// randomized fault injector seeds every divergence class the
// replication stack knows how to produce — holes, stale versions,
// same-version value splits, orphan tombstones, and, since rf < n
// leaves non-owners, copies stranded on a
// non-owner while every owner lost the key and older copies left over
// on one — directly into the engines of a 5-node cluster. One
// anti-entropy pass must converge every owner byte-identically to the
// Entry.Wins winner over every backend's copy, computed by a reference
// model; within two passes no non-owner may hold anything in a bucket
// it does not own; and the pass after that must find a fully converged
// cluster (nothing listed, streamed or purged). The seed is logged so
// a failure replays; CI runs it twice under the race detector for two
// fresh seeds.
func TestAntiEntropyChaos(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))

	const (
		nNodes = 5
		rf     = 3
		nKeys  = 300
	)
	kvs, c := startKVCluster(t, nNodes, ClusterConfig{Replication: rf, WriteQuorum: rf}, nil)

	// Baseline: every key identical on its rf owners.
	keys := make([]string, nKeys)
	vals := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("chaos-%d", i)
		vals[i] = []byte(fmt.Sprintf("v-%d-%d", i, rng.Intn(1_000_000)))
	}
	if err := c.MSet(keys, vals); err != nil {
		t.Fatal(err)
	}

	// Fault injection: mutate engines behind the cluster's back.
	eng := func(b int) *store.Sharded { return kvs[b].Engine() }
	nonOwner := func(owners []int) int {
		for {
			if b := rng.Intn(nNodes); !slices.Contains(owners, b) {
				return b
			}
		}
	}
	for _, k := range keys {
		owners := c.replicaSet(k)
		victim := owners[rng.Intn(len(owners))]
		_, base, ok := eng(owners[0]).AppendLoad(nil, k)
		if !ok {
			t.Fatalf("baseline copy of %q missing on owner %d", k, owners[0])
		}
		switch rng.Intn(7) {
		case 0: // hole: one owner lost the key outright
			lose(eng(victim), k)
		case 1: // stale version: one owner stuck on an older write
			lose(eng(victim), k)
			eng(victim).Merge(k, store.Entry{Value: []byte("stale"), Version: base.Version - uint64(1+rng.Intn(500))})
		case 2: // same-version value split (coordinator collision)
			lose(eng(victim), k)
			eng(victim).Merge(k, store.Entry{Value: []byte(fmt.Sprintf("split-%d", rng.Intn(1_000_000))), Version: base.Version})
		case 3: // orphan tombstone: a delete that reached one owner only
			eng(victim).Merge(k, store.Entry{Version: base.Version + uint64(1+rng.Intn(500)), Tombstone: true})
		case 4: // stranded: every owner lost the key, a non-owner holds it
			for _, o := range owners {
				lose(eng(o), k)
			}
			eng(nonOwner(owners)).Merge(k, base)
		case 5: // leftover: a non-owner holds an older copy
			eng(nonOwner(owners)).Merge(k, store.Entry{Value: []byte("leftover"), Version: base.Version - uint64(1+rng.Intn(500))})
		default: // untouched: converged keys must stay untouched
		}
	}

	// Reference model: per key, the Entry.Wins winner over whatever any
	// backend holds right now.
	type want struct {
		e   store.Entry
		any bool
	}
	expected := make(map[string]want, nKeys)
	for _, k := range keys {
		var w want
		for o := 0; o < nNodes; o++ {
			_, e, ok := eng(o).AppendLoad(nil, k)
			if !ok {
				continue
			}
			if !w.any || e.Wins(w.e) {
				w.e, w.any = e, true
			}
		}
		expected[k] = w
	}

	st, err := c.Rebalance()
	if err != nil {
		t.Fatalf("anti-entropy pass: %v", err)
	}

	// Byte-identical convergence on every owner.
	for _, k := range keys {
		w := expected[k]
		if !w.any {
			t.Fatalf("model lost %q entirely", k)
		}
		for _, o := range c.replicaSet(k) {
			_, got, ok := eng(o).AppendLoad(nil, k)
			if !ok {
				t.Fatalf("owner %d missing %q after anti-entropy (want %+v)", o, k, w.e)
			}
			if got.Version != w.e.Version || got.Tombstone != w.e.Tombstone ||
				!bytes.Equal(got.Value, w.e.Value) {
				t.Fatalf("owner %d of %q = %+v, want %+v", o, k, got, w.e)
			}
		}
	}

	// Non-owners hold nothing within two passes: every non-owner copy is
	// purged once the owners are confirmed to hold at least as much.
	strayLeaves := func() (n int) {
		for b := 0; b < nNodes; b++ {
			d := eng(b).Digest()
			for bucket := 0; bucket < d.Buckets(); bucket++ {
				if d.Leaf(bucket) != 0 && !slices.Contains(c.ownersOf(bucket), b) {
					n++
				}
			}
		}
		return n
	}
	t.Logf("first pass: %+v", st)
	if strayLeaves() > 0 {
		if st, err = c.Rebalance(); err != nil {
			t.Fatalf("second pass: %v", err)
		}
		if n := strayLeaves(); n > 0 {
			t.Fatalf("%d non-owner leaves still hold entries after two passes (%+v)", n, st)
		}
	}

	// The next pass sees a converged cluster: digests only, no stream.
	if st, err = c.Rebalance(); err != nil || st.Streamed != 0 {
		t.Fatalf("post-converge pass = %d %v, want 0 nil", st.Streamed, err)
	}
	if st.ListingFrames != 0 || st.KeysListed != 0 || st.Purged != 0 {
		t.Fatalf("post-converge pass still listing: %+v", st)
	}
}
