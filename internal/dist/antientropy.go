package dist

import (
	"fmt"
	"slices"
	"strings"

	"pdcedu/internal/csnet"
	"pdcedu/internal/obs"
	"pdcedu/internal/store"
	"pdcedu/internal/trace"
)

// AntiEntropyStats describes one Rebalance pass — chiefly how much of
// the keyspace it had to look at. A steady-state pass over a
// converged cluster shows DigestFrames == live backends when every
// backend owns every bucket (a deeper descent otherwise), everything
// else zero: nothing diverged and nothing was listed.
type AntiEntropyStats struct {
	// DigestFrames counts OpTreeV exchanges (one per backend per
	// descent level that still had mismatching nodes).
	DigestFrames int
	// HashesCompared counts tree node hashes fetched across backends.
	HashesCompared int
	// BucketsDiffed counts leaf buckets whose owners disagreed or that a
	// non-owner held something in.
	BucketsDiffed int
	// ListingFrames counts OpRangeV exchanges (zero when nothing
	// diverged — the "no per-key listings" guarantee).
	ListingFrames int
	// KeysListed counts entries received in bucket listings.
	KeysListed int
	// ValueFetches counts OpGetV reads issued to resolve divergence; a
	// read asked again alone after its source refused it counts twice.
	ValueFetches int
	// Streamed counts entries merged onto stale or missing owners.
	Streamed int
	// Purged counts copies removed from backends that do not own their
	// bucket (OpPurgeV replies StatusOK).
	Purged int
}

// Rebalance converges replication by Merkle anti-entropy. It is the
// cluster's one converger: scheduled after every MarkDown and MarkUp,
// callable directly for a deterministic converge in tests and demos.
// Every live backend maintains a hash tree over its raw entry space
// (leaf = one hash-partitioned key bucket; see store.Digest), and
// because placement is bucket-granular, a bucket's owners hold
// identical content exactly when their leaf hashes agree. The pass:
//
//  1. Descends the trees: compare every backend's root, then the
//     children of each node any pair of backends disagrees on, level
//     by level (one pipelined OpTreeV burst per level), down to the
//     leaves. A leaf diverges when its bucket's current owners disagree
//     or when a non-owner's leaf is not empty — a copy stranded there
//     by a membership change, or left over from before one. A subtree every
//     backend agrees on is pruned whole when it is empty, or when every
//     live backend owns every bucket: a converged cluster then resolves
//     in one root exchange per backend, and a pass costs O(diff · log
//     buckets) hashes instead of O(keyspace) keys. A backend whose tree
//     geometry differs from the cluster's is dropped from the pass with
//     an error naming both.
//  2. Lists only the divergent buckets (OpRangeV), aeGroupBuckets of
//     them at a time, from their owners and from the non-owners holding
//     something there, each entry carrying version, value digest and
//     tombstone — in frames whose replies fit csnet.FrameBudget once the
//     cluster has seen how wide a bucket's listing is, in this pass or
//     an earlier one.
//  3. Resolves each key exactly like the engines' Entry.Wins over every
//     listed copy: highest version, tombstone beats value on a tie, and
//     — the hole listings could not see — same-version different-digest
//     copies are fetched and ordered by bytes.
//  4. Streams winners to every owner that is behind, divergent, or
//     missing the key: tombstones straight from the listing, values as
//     OpGetV reads, one batch per source backend, merged with OpMerge
//     — which can never clobber a write that landed after the listing.
//     A winner stranded on a non-owner streams onto the owners the
//     same way.
//  5. Purges each non-owner copy (OpPurgeV at its listed version) once
//     every current owner is confirmed to hold an entry at least as new
//     — by its own listing, or by a merge of a winner that beats the
//     copy, acked in this pass — and only while the route is the one
//     the group was planned with.
//
// It returns the pass's stats — Streamed is how many entries were
// streamed and applied — and the first backend error.
func (c *Cluster) Rebalance() (st AntiEntropyStats, err error) {
	c.rebalanceMu.Lock()
	defer c.rebalanceMu.Unlock()
	start := obs.StartTimer()
	defer func() {
		// Fold the pass into the registry: dist.antientropy.* is the
		// cumulative record of what the returned stats say per pass.
		distM.aePasses.Inc()
		distM.aeDigestFrames.Add(uint64(st.DigestFrames))
		distM.aeListingFrames.Add(uint64(st.ListingFrames))
		distM.aeKeysListed.Add(uint64(st.KeysListed))
		distM.aeStreamed.Add(uint64(st.Streamed))
		distM.aePurged.Add(uint64(st.Purged))
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
	rt := c.route.Load()
	clients := make([]*csnet.Client, n)
	live := make([]int, 0, n)
	for b := 0; b < n; b++ {
		if rt.down[b] {
			continue
		}
		cl, cerr := c.pools[b].Client()
		if cerr != nil {
			noteErr(b, cerr)
			continue
		}
		clients[b] = cl
		live = append(live, b)
	}
	if len(live) == 0 {
		return st, firstErr
	}

	divergent := c.descendTrees(clients, live, rt, &st, noteErr)
	st.BucketsDiffed = len(divergent)
	for len(divergent) > 0 {
		group := divergent[:min(aeGroupBuckets, len(divergent))]
		divergent = divergent[len(group):]
		planned := c.route.Load()
		holders, listed := c.listDivergent(clients, planned.owners, group, &st, noteErr)
		applied, strays := c.streamWinners(ctx, clients, planned.owners, holders, listed, &st, noteErr)
		st.Streamed += applied
		st.Purged += c.purgeStrays(ctx, planned, strays, noteErr)
	}
	return st, firstErr
}

// aeGroupBuckets is how many divergent buckets a pass lists, resolves
// and streams at a time. It bounds what one pass holds on either side
// whatever the keyspace: a replica lists 64/buckets of its entries a
// group (~350 KB at 200k 9-byte keys over 1024 buckets, in frames of
// at most aeListingBudget once the cluster knows a bucket's width —
// from its first listing on, in every pass after; see listDivergent),
// and the coordinator's holders map that many keys, each aliasing the
// listing it came in (csnet.DecodeRangeV) — nothing of which outlives
// the group but the keys it streams (streamWinners).
// A backend whose connection fails in one group is out of the pass for
// the groups after it.
const aeGroupBuckets = 64

// aeListingBudget is the listing bytes a frame asks for once the
// cluster knows a bucket's width (Cluster.aeWidth): three quarters of
// csnet.FrameBudget, so the reply — its header, its trailer, and a
// frame's share of buckets that came out wider than the widest seen so
// far — still fits the transport's recycled buffers, and so does the
// server's own estimate, a sixteenth over the listed share of its
// entries. A keyspace that has grown since the width was seen widens
// its buckets past it; the first reply that shows it raises the width
// for every frame after.
const aeListingBudget = csnet.FrameBudget * 3 / 4

// divergence is one bucket the pass lists: from its owners, and from
// the non-owners (strays) whose leaf showed they hold something in it.
type divergence struct {
	bucket int
	strays []int
}

// descendTrees walks every live backend's Merkle tree in lock-step
// from the root, returning the buckets whose owners under rt disagree
// or that a non-owner holds something in.
func (c *Cluster) descendTrees(clients []*csnet.Client, live []int, rt *route, st *AntiEntropyStats, noteErr func(int, error)) (divergent []divergence) {
	// Where every live backend owns every bucket no copy can be stray,
	// so agreement anywhere is convergence. Otherwise agreeing on
	// non-empty content means some backend holds buckets it does not
	// own, and only an empty subtree is pruned.
	ownsAll := c.rf >= rt.live
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
			if derr == nil && buckets != c.buckets {
				derr = fmt.Errorf("tree geometry %d buckets, cluster places by %d", buckets, c.buckets)
			}
			if derr != nil {
				noteErr(s.backend, derr)
				clients[s.backend] = nil
				continue
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
			if h, same := agree(hashes, id, nil); same && (h == 0 || ownsAll) {
				continue
			}
			if int(id) < c.buckets {
				next = append(next, 2*id, 2*id+1)
				continue
			}
			d := divergence{bucket: int(id) - c.buckets}
			row := rt.owners[d.bucket]
			for _, b := range live {
				if m, ok := hashes[b]; ok && m[id] != 0 && !slices.Contains(row, b) {
					d.strays = append(d.strays, b)
				}
			}
			if _, same := agree(hashes, id, row); len(d.strays) > 0 || !same {
				divergent = append(divergent, d)
			}
		}
		frontier = next
	}
	return divergent
}

// agree reports whether the backends of set that answered — every one
// that answered, for a nil set — hold the same hash for node id, and
// which.
func agree(hashes map[int]map[uint32]uint64, id uint32, set []int) (h uint64, same bool) {
	seen := false
	for b, m := range hashes {
		if set != nil && !slices.Contains(set, b) {
			continue
		}
		if !seen {
			h, seen = m[id], true
		} else if m[id] != h {
			return h, false
		}
	}
	return h, true
}

// holderDigest is one backend's listed copy of a key.
type holderDigest struct {
	backend int
	entry   csnet.KeyDigest
}

// listDivergent fetches one group of divergent buckets' listings: each
// bucket is requested from every reachable owner and from its strays,
// in pipelined OpRangeV frames per backend carrying the group's buckets
// it is asked for. Until the cluster has seen a listing, a backend's
// share goes in one frame; after, in frames of as many buckets as
// aeListingBudget holds at c.aeWidth — the bytes per bucket of the
// widest reply any pass has seen, which each reply here raises — so
// every reply fits the transport's recycled buffers on both ends, and
// only a coordinator's first listings come back unsized. It returns
// the listed copies per key, and which backends' listings arrived
// whole: one frame lost, refused or undecodable says nothing about what
// its owner holds in those buckets, so that backend is neither a target
// nor a witness for the group, and none of its copies are planned
// with.
func (c *Cluster) listDivergent(clients []*csnet.Client, owners [][]int, group []divergence, st *AntiEntropyStats, noteErr func(int, error)) (holders map[string][]holderDigest, listed []bool) {
	perBackend := map[int][]uint32{}
	for _, d := range group {
		for _, b := range slices.Concat(owners[d.bucket], d.strays) {
			if clients[b] != nil {
				perBackend[b] = append(perBackend[b], uint32(d.bucket))
			}
		}
	}
	per := aeGroupBuckets // buckets a frame asks for
	if w := int(c.aeWidth.Load()); w > 0 {
		per = max(1, aeListingBudget/w)
	}
	type sent struct {
		call    *csnet.Call
		buckets int
	}
	calls := make(map[int][]sent, len(perBackend))
	for b, ids := range perBackend {
		for len(ids) > 0 {
			frame := ids[:min(per, len(ids))]
			ids = ids[len(frame):]
			calls[b] = append(calls[b], sent{clients[b].Send(csnet.Request{Op: csnet.OpRangeV, Value: csnet.EncodeBucketList(frame)}), len(frame)})
			st.ListingFrames++
		}
	}
	holders = map[string][]holderDigest{}
	listed = make([]bool, len(clients))
	var listings [][]csnet.KeyDigest
	for b, frames := range calls {
		listings = listings[:0]
		for _, s := range frames {
			resp, rerr := s.call.ResponseV()
			if rerr != nil {
				noteErr(b, rerr)
				clients[b] = nil
				continue
			}
			if resp.Status != csnet.StatusOK {
				noteErr(b, fmt.Errorf("rangev %w", statusErr(resp)))
				continue
			}
			listing, derr := csnet.DecodeRangeV(resp.Value)
			if derr != nil {
				noteErr(b, derr)
				continue
			}
			if w := int64((len(resp.Value) + s.buckets - 1) / s.buckets); w > c.aeWidth.Load() {
				c.aeWidth.Store(w) // passes are serialized (rebalanceMu)
			}
			listings = append(listings, listing)
		}
		if len(listings) < len(frames) {
			continue
		}
		listed[b] = true
		for _, listing := range listings {
			st.KeysListed += len(listing)
			for _, e := range listing {
				// Observe every imported version (the same invariant as
				// the read/write paths): a coordinator whose wall clock
				// lags must advance past listed state or its next Set
				// could stamp under it and silently lose everywhere.
				c.clock.Observe(e.Version)
				holders[e.Key] = append(holders[e.Key], holderDigest{backend: b, entry: e})
			}
		}
	}
	return holders, listed
}

// winsListed orders two listed copies the way store.Entry.Wins orders
// resident entries, to the extent listings allow: version, then
// tombstone-beats-value, then — where Wins compares value bytes — the
// digest only says *whether* they differ, so equal-version live copies
// with different digests return unordered=false and the caller fetches
// the bytes.
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
	return false, true
}

// stray is one listed copy on a backend that does not own its key's
// bucket.
type stray struct {
	key string
	holderDigest
}

// rescue is one key's stray copies and how many owners have yet to be
// confirmed holding at least as much.
type rescue struct {
	strays  []stray
	waiting int
}

// streamWinners resolves each divergent key to its Entry.Wins winner
// over every listed copy and merges it onto every owner holding less.
// Tombstone winners stream straight from the listing; value winners are
// read once and merged at the version actually read — which may be
// newer than the listing's, and merge keeps every target at least that
// new. Same-version different-digest splits read one copy per digest
// and let Entry.Wins order the bytes. The reads ride the batchClients
// core the data ops use, untraced: each source's share is one burst,
// and an entry it refuses rather than answers — a burst shed, or
// declined by a build before OpBatch — is asked once more alone. Only
// NotFound means the key went since the listing; any other failure is
// the pass's error.
//
// Non-owner copies take part in choosing the winner; only owners whose
// listing arrived are targets. When every owner of a key was listed,
// its non-owner copies are returned for purging once each owner is
// confirmed: it listed the winner (which beats every listed copy), or
// acked the merge of one that beats the copy.
func (c *Cluster) streamWinners(ctx trace.Context, clients []*csnet.Client, owners [][]int, holders map[string][]holderDigest, listed []bool, st *AntiEntropyStats, noteErr func(int, error)) (copied int, purge []stray) {
	type job struct {
		key     string
		winner  csnet.KeyDigest
		reads   []holderDigest // the copies to read: one per distinct digest at the winner's version
		targets []int          // owners to merge onto
		rescue  *rescue        // the key's strays, when every owner was listed
	}
	// Each repair merge is a child span of the pass: a waterfall of a
	// slow pass shows exactly which owners were converged and at what
	// cost per stream. A merge for a key with strays is remembered by
	// its place in its backend's burst, so its ack can confirm the owner.
	mb := mergeBurst{c: c, kind: trace.KindAE}
	confirms := map[[2]int]*rescue{}
	merge := func(j job, e store.Entry) {
		for _, t := range j.targets {
			if i := mb.send(ctx, t, j.key, e); j.rescue != nil {
				confirms[[2]int{t, i}] = j.rescue
			}
		}
	}
	var slots [inlineBackends]clientSlot
	bc := c.batchClients(&slots)
	var reads []job
	var copies []holderDigest // every job's reads, back to back
	var rescues []*rescue
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
		row := owners[store.BucketOf(key, c.buckets)]
		var targets []int
		witnessed := len(row) > 0
		for _, o := range row {
			if !listed[o] {
				witnessed = false
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
		var r *rescue
		for _, h := range list {
			if !witnessed || slices.Contains(row, h.backend) {
				continue
			}
			if r == nil {
				r = &rescue{waiting: len(targets)}
				rescues = append(rescues, r)
			}
			r.strays = append(r.strays, stray{key, h})
		}
		if len(targets) == 0 {
			continue
		}
		// A listed key aliases its listing's whole reply body. A streamed
		// one may outlive the group as a read-cache floor
		// (mergeBurst.send) and would pin that body there, so it gets
		// its own bytes.
		j := job{key: strings.Clone(key), winner: winner.entry, targets: targets, rescue: r}
		if winner.entry.Tombstone {
			// No source read: the listing carries the version.
			merge(j, store.Entry{Version: j.winner.Version, Tombstone: true})
			continue
		}
		// Every copy at the winner's version is live; without a split
		// they share one digest, and the first is the winner's own.
		lo := len(copies)
		for _, h := range list {
			if h.entry.Version == winner.entry.Version && clients[h.backend] != nil &&
				!slices.ContainsFunc(copies[lo:], func(r holderDigest) bool { return r.entry.Digest == h.entry.Digest }) {
				copies = append(copies, h)
				bc.add(trace.Context{}, trace.KindAE, h.backend, csnet.Request{Op: csnet.OpGetV, Key: j.key})
				st.ValueFetches++
			}
		}
		j.reads = copies[lo:len(copies):len(copies)]
		reads = append(reads, j)
	}
	bc.flush()
	// Each source answers in the order it was sent to, so walking the
	// jobs again pairs every reply with its read.
	answered := func(resp csnet.Response) bool {
		return resp.Status == csnet.StatusOK || resp.Status == csnet.StatusNotFound
	}
	for _, j := range reads {
		var best store.Entry
		arrived := j.reads[:0] // the copies whose bytes came back, filtered in place
		for _, h := range j.reads {
			resp, _, err := bc.next(h.backend)
			if err == nil && !answered(resp) {
				resp, err = bc.alone(h.backend, csnet.Request{Op: csnet.OpGetV, Key: j.key})
				st.ValueFetches++
			}
			if err == nil && !answered(resp) {
				err = statusErr(resp)
			}
			if err != nil {
				noteErr(h.backend, err)
				continue
			}
			if resp.Status == csnet.StatusNotFound {
				continue // deleted since the listing; the next pass converges
			}
			c.clock.Observe(resp.Version)
			if e := entryOf(resp); len(arrived) == 0 || e.Wins(best) {
				best = e
			}
			arrived = append(arrived, h)
		}
		if len(arrived) == 0 {
			continue
		}
		// The winner beats exactly the copies whose bytes arrived, and
		// every older one; a stray holding any other is kept.
		if r := j.rescue; r != nil {
			r.strays = slices.DeleteFunc(r.strays, func(s stray) bool {
				return s.entry.Version == j.winner.Version &&
					!slices.ContainsFunc(arrived, func(h holderDigest) bool { return h.entry.Digest == s.entry.Digest })
			})
		}
		merge(j, best)
	}
	copied = mb.collect(func(b, i int, _ uint64, err error) {
		if r := confirms[[2]int{b, i}]; r != nil && err == nil {
			r.waiting--
		}
	})
	for _, r := range rescues {
		if r.waiting == 0 {
			purge = append(purge, r.strays...)
		}
	}
	return copied, purge
}

// purgeStrays removes the confirmed non-owner copies, one OpPurgeV at
// each copy's listed version — so a write that reached the backend
// since is kept — batched per backend like the merges. It sends nothing
// once the route has moved on from the one the group was planned
// with: a stray may own its bucket now, and the next pass (every
// membership change schedules one) judges it afresh.
func (c *Cluster) purgeStrays(ctx trace.Context, planned *route, strays []stray, noteErr func(int, error)) int {
	if len(strays) == 0 || c.route.Load() != planned {
		return 0
	}
	mb := mergeBurst{c: c, kind: trace.KindAE}
	for _, s := range strays {
		mb.add(ctx, s.backend, csnet.Request{Op: csnet.OpPurgeV, Key: s.key, Version: s.entry.Version})
	}
	return mb.collect(func(b, _ int, _ uint64, err error) {
		if err != nil {
			noteErr(b, err)
		}
	})
}
