package dist

import (
	"fmt"

	"pdcedu/internal/csnet"
	"pdcedu/internal/obs"
	"pdcedu/internal/store"
	"pdcedu/internal/trace"
)

// AntiEntropyStats describes the last Rebalance pass — chiefly how
// much of the keyspace it had to look at. A steady-state pass over a
// converged cluster shows DigestFrames == live backends, everything
// else zero: the roots matched and nothing was listed.
type AntiEntropyStats struct {
	// DigestFrames counts OpTreeV exchanges (one per backend per
	// descent level that still had mismatching nodes).
	DigestFrames int
	// HashesCompared counts tree node hashes fetched across backends.
	HashesCompared int
	// BucketsDiffed counts leaf buckets whose owners disagreed.
	BucketsDiffed int
	// ListingFrames counts OpRangeV exchanges (zero when nothing
	// diverged — the "no per-key listings" guarantee).
	ListingFrames int
	// KeysListed counts entries received in bucket listings.
	KeysListed int
	// ValueFetches counts OpGetV reads issued to resolve divergence.
	ValueFetches int
	// Streamed counts entries merged onto stale or missing owners.
	Streamed int
	// FellBack reports that a tree-geometry mismatch forced the pass
	// down to RebalanceListings.
	FellBack bool
}

// AntiEntropyStats returns the stats of the most recent Rebalance
// pass.
func (c *Cluster) AntiEntropyStats() AntiEntropyStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastAE
}

// Rebalance converges replication by Merkle anti-entropy. Every live
// backend maintains a hash tree over its raw entry space (leaf = one
// hash-partitioned key bucket; see store.Digest), and because
// placement is bucket-granular, a bucket's owners hold identical
// content exactly when their leaf hashes agree. The pass:
//
//  1. Descends the trees: compare every backend's root, then the
//     children of each node any pair of backends disagrees on, level
//     by level (one pipelined OpTreeV burst per level), down to the
//     leaves — where the comparison narrows to each bucket's current
//     owners, so a non-owner's leftover copies never trigger repair.
//     A subtree all backends agree on is pruned whole: a converged
//     cluster resolves in one root exchange per backend, and a pass
//     costs O(diff · log buckets) hashes instead of O(keyspace) keys.
//  2. Lists only the divergent buckets (OpRangeV), aeGroupBuckets of
//     them at a time, each entry carrying version, value digest,
//     tombstone, and expiry.
//  3. Resolves each key exactly like the engines' Entry.Wins: highest
//     version, tombstone beats value on a tie, and — the hole listings
//     could not see — same-version different-digest copies are fetched
//     and ordered by bytes, mortal beats immortal on full ties.
//  4. Streams winners to every owner that is behind, divergent, or
//     missing the key: tombstones straight from the listing, values as
//     pipelined OpGetV reads merged with OpMerge — which can never
//     clobber a write that landed after the listing.
//
// It returns how many entries were streamed and applied. Callable
// directly for a deterministic converge in tests and demos. A backend
// whose tree geometry differs from the cluster's cannot be diffed; the
// pass falls back to RebalanceListings (see AntiEntropyStats.FellBack).
//
// Scope: comparison and repair target each bucket's *current owners*.
// A copy stranded on a non-owner is invisible here — possible only
// when every owner of a bucket was down at write time, so the ring's
// next live successors accepted the write and became non-owners again
// at restore. That is why the passes MarkDown/MarkUp schedule are full
// RebalanceListings passes (every backend listed, stranded copies
// rescued; see kickRebalance), while steady-state and manual passes
// use the digest exchange.
func (c *Cluster) Rebalance() (copied int, err error) {
	c.rebalanceMu.Lock()
	defer c.rebalanceMu.Unlock()
	st := AntiEntropyStats{}
	start := obs.StartTimer()
	defer func() {
		c.mu.Lock()
		c.lastAE = st
		c.mu.Unlock()
		// Fold the per-pass stats into the registry so the stats plane
		// sees cumulative anti-entropy cost; lastAE stays the per-pass
		// view the accessor and tests read.
		distM.aePasses.Inc()
		if st.FellBack {
			distM.aeFallbacks.Inc()
		}
		distM.aeDigestFrames.Add(uint64(st.DigestFrames))
		distM.aeListingFrames.Add(uint64(st.ListingFrames))
		distM.aeKeysListed.Add(uint64(st.KeysListed))
		distM.aeStreamed.Add(uint64(st.Streamed))
		distM.aePassLatency.ObserveSince(start)
	}()

	ctx, root := c.startOp(trace.KindAE, "rebalance")
	defer func() {
		root.S.Err = err != nil
		root.Finish()
	}()

	n := len(c.pools)
	var firstErr error
	noteErr := func(b int, err error) {
		if firstErr == nil {
			firstErr = fmt.Errorf("dist: rebalance backend %d: %w", b, err)
		}
	}
	clients := make([]*csnet.Client, n)
	live := make([]int, 0, n)
	for b := 0; b < n; b++ {
		if c.IsDown(b) {
			continue
		}
		cl, cerr := c.pools[b].get()
		if cerr != nil {
			noteErr(b, cerr)
			continue
		}
		clients[b] = cl
		live = append(live, b)
	}
	if len(live) == 0 {
		return 0, firstErr
	}

	divergent, geomOK := c.descendTrees(clients, live, &st, noteErr)
	if !geomOK {
		st.FellBack = true
		copied, err = c.rebalanceListings(ctx)
		if err == nil {
			err = firstErr
		}
		st.Streamed = copied
		return copied, err
	}
	if len(divergent) == 0 {
		return 0, firstErr
	}
	st.BucketsDiffed = len(divergent)

	for len(divergent) > 0 {
		group := divergent[:min(aeGroupBuckets, len(divergent))]
		divergent = divergent[len(group):]
		holders := c.listDivergent(clients, group, &st, noteErr)
		copied += c.streamWinners(ctx, clients, holders, &st, noteErr)
	}
	st.Streamed = copied
	return copied, firstErr
}

// aeGroupBuckets is how many divergent buckets a pass lists, resolves
// and streams at a time. It bounds what one pass holds on either side
// whatever the keyspace: a replica's OpRangeV response is 64/buckets of
// its entries (~350 KB at 200k 9-byte keys over 1024 buckets), and the
// coordinator's holders map that many keys. A backend whose connection
// fails in one group is out of the pass for the groups after it.
const aeGroupBuckets = 64

// descendTrees walks every live backend's Merkle tree in lock-step
// from the root, returning the buckets whose owners disagree. geomOK
// is false when any backend reported a different tree geometry than
// the cluster places by — diffing against it would be meaningless.
func (c *Cluster) descendTrees(clients []*csnet.Client, live []int, st *AntiEntropyStats, noteErr func(int, error)) (divergent []int, geomOK bool) {
	frontier := []uint32{1}
	for len(frontier) > 0 {
		body := csnet.EncodeBucketList(frontier)
		type sent struct {
			call    *csnet.Call
			backend int
		}
		calls := make([]sent, 0, len(live))
		for _, b := range live {
			if clients[b] == nil {
				continue
			}
			calls = append(calls, sent{clients[b].Send(csnet.Request{Op: csnet.OpTreeV, Value: body}), b})
			st.DigestFrames++
		}
		hashes := make(map[int]map[uint32]uint64, len(calls))
		for _, s := range calls {
			resp, rerr := s.call.ResponseV()
			if rerr != nil {
				noteErr(s.backend, rerr)
				clients[s.backend] = nil // conn poisoned; drop from the pass
				continue
			}
			if resp.Status != csnet.StatusOK {
				noteErr(s.backend, fmt.Errorf("treev status %s: %s", resp.Status, resp.Value))
				clients[s.backend] = nil
				continue
			}
			buckets, nodes, derr := csnet.DecodeTree(resp.Value)
			if derr != nil {
				noteErr(s.backend, derr)
				clients[s.backend] = nil
				continue
			}
			if buckets != c.buckets {
				noteErr(s.backend, fmt.Errorf("tree geometry %d buckets, cluster places by %d", buckets, c.buckets))
				return nil, false
			}
			m := make(map[uint32]uint64, len(nodes))
			for _, nd := range nodes {
				m[nd.Node] = nd.Hash
			}
			hashes[s.backend] = m
			st.HashesCompared += len(nodes)
		}
		var next []uint32
		for _, id := range frontier {
			if agreeAll(hashes, id) {
				// Every responding backend holds an identical subtree —
				// owners included — so nothing under this node can need
				// repair. This is the pruning that makes a converged
				// cluster's pass O(backends) frames.
				continue
			}
			if int(id) < c.buckets {
				next = append(next, 2*id, 2*id+1)
				continue
			}
			// Leaf: only the bucket's owners must agree. Non-owners may
			// hold leftover copies from before a ring change; those are
			// harmless extras, not divergence.
			bucket := int(id) - c.buckets
			if !agreeAmong(hashes, id, c.ownersOf(bucket)) {
				divergent = append(divergent, bucket)
			}
		}
		frontier = next
	}
	return divergent, true
}

// agreeAll reports whether every backend that answered holds the same
// hash for node id.
func agreeAll(hashes map[int]map[uint32]uint64, id uint32) bool {
	var first uint64
	seen := false
	for _, m := range hashes {
		h := m[id]
		if !seen {
			first, seen = h, true
		} else if h != first {
			return false
		}
	}
	return true
}

// agreeAmong reports whether the listed backends (those that answered)
// hold the same hash for node id.
func agreeAmong(hashes map[int]map[uint32]uint64, id uint32, backends []int) bool {
	var first uint64
	seen := false
	for _, b := range backends {
		m, ok := hashes[b]
		if !ok {
			continue
		}
		h := m[id]
		if !seen {
			first, seen = h, true
		} else if h != first {
			return false
		}
	}
	return true
}

// holderDigest is one backend's listed copy of a key.
type holderDigest struct {
	backend int
	entry   csnet.KeyDigest
}

// listDivergent fetches one group of divergent buckets' listings: each
// bucket is requested from every reachable owner, one pipelined
// OpRangeV per backend carrying the buckets of the group it owns. The
// result groups listed copies per key.
func (c *Cluster) listDivergent(clients []*csnet.Client, buckets []int, st *AntiEntropyStats, noteErr func(int, error)) map[string][]holderDigest {
	perBackend := map[int][]uint32{}
	for _, bkt := range buckets {
		for _, o := range c.ownersOf(bkt) {
			if clients[o] != nil {
				perBackend[o] = append(perBackend[o], uint32(bkt))
			}
		}
	}
	type sent struct {
		call    *csnet.Call
		backend int
	}
	calls := make([]sent, 0, len(perBackend))
	for b, ids := range perBackend {
		calls = append(calls, sent{clients[b].Send(csnet.Request{Op: csnet.OpRangeV, Value: csnet.EncodeBucketList(ids)}), b})
		st.ListingFrames++
	}
	holders := map[string][]holderDigest{}
	for _, s := range calls {
		resp, rerr := s.call.ResponseV()
		if rerr != nil {
			noteErr(s.backend, rerr)
			clients[s.backend] = nil
			continue
		}
		if resp.Status != csnet.StatusOK {
			noteErr(s.backend, fmt.Errorf("rangev status %s: %s", resp.Status, resp.Value))
			continue
		}
		listing, derr := csnet.DecodeRangeV(resp.Value)
		if derr != nil {
			noteErr(s.backend, derr)
			continue
		}
		st.KeysListed += len(listing)
		for _, e := range listing {
			// Observe every imported version (the same invariant as the
			// read/write paths): a coordinator whose wall clock lags must
			// advance past listed state or its next Set could stamp under
			// it and silently lose everywhere.
			c.clock.Observe(e.Version)
			holders[e.Key] = append(holders[e.Key], holderDigest{backend: s.backend, entry: e})
		}
	}
	return holders
}

// winsListed orders two listed copies the way store.Entry.Wins orders
// resident entries, to the extent listings allow: version, then
// tombstone-beats-value, then — where Wins compares value bytes — the
// digest only says *whether* they differ, so equal-version live copies
// with different digests return unordered=false and the caller fetches
// the bytes. Mortal beats immortal on the remaining tie.
func winsListed(e, cur csnet.KeyDigest) (wins, ordered bool) {
	if e.Version != cur.Version {
		return e.Version > cur.Version, true
	}
	if e.Tombstone != cur.Tombstone {
		return e.Tombstone, true
	}
	if !e.Tombstone && e.Digest != cur.Digest {
		return false, false // value order unknowable from digests
	}
	if e.ExpireAt != cur.ExpireAt {
		if e.ExpireAt == 0 {
			return false, true
		}
		return cur.ExpireAt == 0 || e.ExpireAt < cur.ExpireAt, true
	}
	return false, true
}

// streamWinners resolves each divergent key to its Entry.Wins winner
// and merges it onto every owner holding less. Tombstone winners
// stream straight from the listing; value winners are read once
// (pipelined per source backend) and merged at the version actually
// read — which may be newer than the listing's, and merge keeps every
// target at least that new. Same-version different-digest splits fetch
// one copy per digest and let Entry.Wins order the bytes.
func (c *Cluster) streamWinners(ctx trace.Context, clients []*csnet.Client, holders map[string][]holderDigest, st *AntiEntropyStats, noteErr func(int, error)) (copied int) {
	type job struct {
		key     string
		winner  csnet.KeyDigest
		source  int   // backend to read a value winner from
		targets []int // owners to merge onto
	}
	var tombs []job
	reads := map[int][]job{} // value reads grouped by source backend
	var splits []job         // same-version digest splits: read from every distinct holder
	for key, list := range holders {
		// The Wins-maximal listed copy; splits surface as unordered.
		winner := list[0]
		split := false
		for _, h := range list[1:] {
			w, ordered := winsListed(h.entry, winner.entry)
			if !ordered {
				split = true
				continue
			}
			if w {
				winner = h
				split = false
			}
		}
		// Re-scan against the final winner: an earlier copy may tie it.
		if !split {
			for _, h := range list {
				if _, ordered := winsListed(h.entry, winner.entry); !ordered {
					split = true
					break
				}
			}
		}
		var targets []int
		for _, o := range c.ownersOf(store.BucketOf(key, c.buckets)) {
			if clients[o] == nil {
				continue
			}
			var cand *csnet.KeyDigest
			for i := range list {
				if list[i].backend == o {
					cand = &list[i].entry
					break
				}
			}
			switch {
			case cand == nil:
				targets = append(targets, o) // hole
			case split && cand.Version == winner.entry.Version && !cand.Tombstone:
				targets = append(targets, o) // divergent bytes: all holders merge the winner
			case *cand != winner.entry:
				targets = append(targets, o) // behind, or losing a tie-break
			}
		}
		if len(targets) == 0 {
			continue
		}
		j := job{key: key, winner: winner.entry, source: winner.backend, targets: targets}
		switch {
		case split:
			splits = append(splits, j)
		case winner.entry.Tombstone:
			tombs = append(tombs, j)
		default:
			reads[winner.backend] = append(reads[winner.backend], j)
		}
	}

	// Each repair merge is a child span of the pass: a waterfall of a
	// slow pass shows exactly which owners were converged and at what
	// cost per stream.
	mb := mergeBurst{c: c, kind: trace.KindAE}
	// Tombstones need no source read: the listing carries everything
	// (version and — for expiry tombstones — the expiry for GC aging).
	for _, j := range tombs {
		for _, t := range j.targets {
			mb.send(ctx, t, j.key, store.Entry{Version: j.winner.Version, Tombstone: true, ExpireAt: j.winner.ExpireAt})
		}
	}
	// Plain value winners: one pipelined GetV burst per source backend.
	for src, list := range reads {
		calls := make([]*csnet.Call, len(list))
		for i, j := range list {
			calls[i] = clients[src].Send(csnet.Request{Op: csnet.OpGetV, Key: j.key})
			st.ValueFetches++
		}
		for i, j := range list {
			resp, rerr := calls[i].ResponseV()
			if rerr != nil {
				noteErr(src, rerr) // conn poisoned; the next kick retries
				break
			}
			if resp.Status != csnet.StatusOK {
				continue // deleted or expired since the listing; next pass converges
			}
			c.clock.Observe(resp.Version)
			for _, t := range j.targets {
				mb.send(ctx, t, j.key, entryOf(resp))
			}
		}
	}
	// Digest splits: fetch one copy per distinct digest and let
	// Entry.Wins order the actual bytes — the divergence listings alone
	// could never close.
	for _, j := range splits {
		seen := map[uint64]bool{}
		var fetches []*csnet.Call
		for _, h := range holders[j.key] {
			if h.entry.Version != j.winner.Version || h.entry.Tombstone || seen[h.entry.Digest] || clients[h.backend] == nil {
				continue
			}
			seen[h.entry.Digest] = true
			fetches = append(fetches, clients[h.backend].Send(csnet.Request{Op: csnet.OpGetV, Key: j.key}))
			st.ValueFetches++
		}
		var best store.Entry
		have := false
		for _, call := range fetches {
			resp, rerr := call.ResponseV()
			if rerr != nil || resp.Status != csnet.StatusOK {
				continue
			}
			c.clock.Observe(resp.Version)
			e := entryOf(resp)
			if !have || e.Wins(best) {
				best, have = e, true
			}
		}
		if !have {
			continue // all holders vanished mid-pass; next pass converges
		}
		for _, t := range j.targets {
			mb.send(ctx, t, j.key, best)
		}
	}
	return mb.collect(nil)
}
