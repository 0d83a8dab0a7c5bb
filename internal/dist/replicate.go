package dist

import (
	"fmt"

	"pdcedu/internal/csnet"
	"pdcedu/internal/store"
	"pdcedu/internal/trace"
)

// mutation is one version-stamped write — a value, or a tombstone for
// a delete — headed for its key's live replica set.
type mutation struct {
	key string
	e   store.Entry
}

// replicaFault is one replica that did not take a mutation.
type replicaFault struct {
	backend int
	err     error
	hinted  bool // unreachable rather than rejecting: the write is queued for replay
}

// outcome is what replicate learned about one mutation.
type outcome struct {
	set     []int  // the key's live replica set at write time (shared: read-only)
	acks    int    // replicas now holding this write or something newer
	need    int    // acks that settle it: the write quorum, or every replica for a delete
	existed bool   // some replica applied it over a live copy (what Del reports)
	lostTo  uint64 // newest version a replica already held above this write
	faults  []replicaFault
}

// settled reports whether the write reached as many replicas as its
// kind needs; with no live replica nothing settles.
func (o *outcome) settled() bool { return len(o.set) > 0 && o.acks >= o.need }

// failure names what kept the mutation from settling: no live replica
// at all, or the first replica fault.
func (o *outcome) failure(op, key string) error {
	if len(o.set) == 0 {
		return noLiveErr(op, key)
	}
	f := o.faults[0]
	return fmt.Errorf("dist: cluster %s %q on backend %d: %w", op, key, f.backend, f.err)
}

// partial renders an unsettled outcome as a PartialWriteError: every
// replica of the set either acked or has a fault, so the ack list is
// the set minus the causes.
func (o *outcome) partial(op, key string) *PartialWriteError {
	// o.set is a row of the shared owners table; the error gets its own.
	pe := &PartialWriteError{Op: op, Key: key, Replicas: append([]int(nil), o.set...), Quorum: o.need}
	if len(o.faults) > 0 {
		pe.Causes = make(map[int]error, len(o.faults))
	}
	for _, f := range o.faults {
		pe.Causes[f.backend] = f.err
		if f.hinted {
			pe.Hinted = append(pe.Hinted, f.backend)
		}
	}
	for _, b := range o.set {
		if _, failed := pe.Causes[b]; !failed {
			pe.Acked = append(pe.Acked, b)
		}
	}
	return pe
}

// fault books replica b's failure to take m, queueing the write as a
// hint when the replica was unreachable rather than rejecting.
func (c *Cluster) fault(ctx trace.Context, m *mutation, o *outcome, b int, err error, hint bool) {
	if hint {
		c.hint(b, m.key, hintEntry{e: m.e, tr: ctx})
	}
	o.faults = append(o.faults, replicaFault{b, err, hint})
}

// replicate is the one write path under Set, MSet, Del and MDel: every
// mutation goes to its key's live replica set (SETV, or DELV for a
// tombstone), each backend's share as one frame, then the replies are
// read back and out[i] filled for muts[i]. The reply rules and the
// cache verdict tabled in the Cluster doc are implemented here and
// nowhere else. Callers stamp versions, own the root span behind ctx,
// and turn outcomes into their own result and error shape.
func (c *Cluster) replicate(ctx trace.Context, muts []mutation, out []outcome) {
	var slots [inlineBackends]clientSlot
	bc := c.batchClients(&slots)
	for i := range muts {
		m := &muts[i]
		out[i].set = c.replicaSet(m.key)
		req := csnet.Request{Op: csnet.OpSetV, Key: m.key, Value: m.e.Value, Version: m.e.Version}
		if m.e.Tombstone {
			req.Op = csnet.OpDelV
		}
		for _, b := range out[i].set {
			bc.add(ctx, trace.KindRPC, b, req)
		}
	}
	bc.flush()
	// Each backend answers in the order it was sent to, so walking the
	// plan again pairs every reply with its mutation.
	for i := range muts {
		m, o := &muts[i], &out[i]
		for _, b := range o.set {
			resp, sp, err := bc.next(b)
			switch {
			case err != nil:
				// Unreachable or dying: worth replaying when it returns.
				c.fault(ctx, m, o, b, err, true)
			case resp.Status == csnet.StatusOK || resp.Status == csnet.StatusExists ||
				resp.Status == csnet.StatusNotFound && m.e.Tombstone:
				// Observe the resident version: an Exists reply carries the
				// newer one, and a coordinator whose wall clock lags must
				// advance past it or its next write loses too.
				c.clock.Observe(resp.Version)
				if resp.Status == csnet.StatusExists && resp.Version > o.lostTo {
					o.lostTo = resp.Version
				}
				o.existed = o.existed || resp.Status == csnet.StatusOK
				o.acks++
			default:
				// Alive and declining: a replay would be declined again.
				err = statusErr(resp)
				c.fault(ctx, m, o, b, err, false)
			}
			endSpan(sp, err != nil)
		}
		o.need = c.quorumFor(len(o.set))
		if m.e.Tombstone {
			o.need = len(o.set)
		}
		switch {
		case !o.settled():
			c.cacheSupersede(m.key, m.e.Version)
		case o.lostTo > 0:
			c.cacheSupersede(m.key, o.lostTo)
		default:
			c.cache.put(m.key, m.e)
		}
	}
}

// batchClients is the per-backend state of one operation: the pooled
// client, resolved once — a dial failure is remembered, so a dead
// backend is reported once instead of re-dialed per key — and the burst
// the operation's writes to that backend ride.
type batchClients struct {
	c     *Cluster
	slots []clientSlot // one per backend
}

type clientSlot struct {
	cl  *csnet.Client // nil with err nil: not dialed yet
	err error

	batch       csnet.Batch
	added, read int // entries added to the burst; replies read back
	// spans holds the traced entries' RPC spans, tagged with the entry's
	// index, until their replies arrive; ended of them have.
	spans []entrySpan
	ended int
}

type entrySpan struct {
	entry int
	sp    trace.Active
}

// inlineBackends is the cluster width whose client slots fit the
// caller's stack buffer; wider clusters allocate theirs.
const inlineBackends = 8

func (c *Cluster) batchClients(buf *[inlineBackends]clientSlot) batchClients {
	if n := len(c.pools); n > len(buf) {
		return batchClients{c, make([]clientSlot, n)}
	}
	return batchClients{c, buf[:len(c.pools)]}
}

func (bc *batchClients) get(b int) (*csnet.Client, error) {
	s := &bc.slots[b]
	if s.cl == nil && s.err == nil {
		if s.cl, s.err = bc.c.pools[b].Client(); s.err == nil {
			s.batch = s.cl.Batch()
		}
	}
	return s.cl, s.err
}

// add makes req the next entry of backend b's burst, under a child span
// of ctx, named for its op, when that is traced. With no connection to
// b nothing is sent and the entry's reply is the dial error.
func (bc *batchClients) add(ctx trace.Context, kind trace.Kind, b int, req csnet.Request) {
	s := &bc.slots[b]
	if _, err := bc.get(b); err == nil {
		if ctx.Valid() {
			s.spans = append(s.spans, entrySpan{s.added, bc.c.span(ctx, kind, req.Op.String(), b)})
			req.Trace = s.spans[len(s.spans)-1].sp.Context()
		}
		s.batch.Add(req)
	}
	s.added++
}

// flush puts every backend's entries on the wire.
func (bc *batchClients) flush() {
	for b := range bc.slots {
		if bc.slots[b].cl != nil {
			bc.slots[b].batch.Send()
		}
	}
}

// next reads backend b's next reply, in the order add was called for
// it, and returns the entry's span (nil when untraced) for endSpan.
func (bc *batchClients) next(b int) (resp csnet.Response, sp *trace.Active, err error) {
	s := &bc.slots[b]
	if err = s.err; err == nil {
		resp, err = s.batch.NextV()
	}
	if s.ended < len(s.spans) && s.spans[s.ended].entry == s.read {
		sp = &s.spans[s.ended].sp
		s.ended++
	}
	s.read++
	return resp, sp, err
}

// alone sends req to backend b as a one-entry Batch of its own — a
// plain frame outside b's burst, whose replies keep their order — and
// waits for its reply.
func (bc *batchClients) alone(b int, req csnet.Request) (csnet.Response, error) {
	cl, err := bc.get(b)
	if err != nil {
		return csnet.Response{}, err
	}
	batch := cl.Batch()
	batch.Add(req)
	batch.Send()
	return batch.NextV()
}

// endSpan closes an entry's span once its reply has been judged.
func endSpan(sp *trace.Active, failed bool) {
	if sp != nil {
		sp.S.Err = failed
		sp.Finish()
	}
}

// mergeBurst is the one repair path under read-repair, hint replay and
// anti-entropy: OpMerge requests batched per backend as they are
// planned (a frame leaves as it fills), then collected together. A
// merge is version-aware on the replica — it fills holes and fixes
// stale copies but can never overwrite a newer write — so a burst needs
// no ordering, and a lost one costs only the next pass. Anti-entropy's
// version-bounded purges ride a burst of their own the same way: OK is
// applied, Exists is a newer entry kept.
type mergeBurst struct {
	c      *Cluster
	kind   trace.Kind // span kind each request records under
	bc     batchClients
	inline [inlineBackends]clientSlot
}

// send merges e onto backend b under a child span of ctx and returns
// the entry's index among those sent to b (collect's i). Whatever is
// being pushed at a replica is write-path news the coordinator's cache
// may not have seen: it supersedes the key there.
func (mb *mergeBurst) send(ctx trace.Context, b int, key string, e store.Entry) int {
	mb.c.cacheSupersede(key, e.Version)
	return mb.add(ctx, b, csnet.MergeRequest(key, e, trace.Context{}))
}

// add makes req the next entry of backend b's burst and returns its
// index among them.
func (mb *mergeBurst) add(ctx trace.Context, b int, req csnet.Request) int {
	if mb.bc.c == nil {
		mb.bc = mb.c.batchClients(&mb.inline)
	}
	mb.bc.add(ctx, mb.kind, b, req)
	return mb.bc.slots[b].added - 1
}

// collect waits for every reply and returns how many requests the
// replicas applied. reply, when non-nil, sees each one — entry i of
// those sent to backend b — with the version now resident (the merged
// one, or the newer one an Exists reply carries), or the error of a
// request that was lost or rejected.
func (mb *mergeBurst) collect(reply func(b, i int, resident uint64, err error)) (applied int) {
	mb.bc.flush()
	for b := range mb.bc.slots {
		for i := 0; i < mb.bc.slots[b].added; i++ {
			resp, sp, err := mb.bc.next(b)
			if err == nil && resp.Status != csnet.StatusOK && resp.Status != csnet.StatusExists {
				err = statusErr(resp)
			}
			if err == nil {
				mb.c.clock.Observe(resp.Version)
				if resp.Status == csnet.StatusOK {
					applied++
				}
			}
			endSpan(sp, err != nil)
			if reply != nil {
				reply(b, i, resp.Version, err)
			}
		}
	}
	return applied
}
