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

// inlineCalls is how many in-flight sends replicate tracks without
// allocating: a single-key write at any usual replication factor.
const inlineCalls = 4

// replicate is the one write path under Set, MSet, Del and MDel: it
// sends every mutation to its key's live replica set as one pipelined
// burst per backend (SETV, or DELV for a tombstone), collects the
// replies, and fills out[i] for muts[i]. The reply rules and the cache
// verdict tabled in the Cluster doc are implemented here and nowhere
// else. Callers stamp versions, own the root span behind ctx, and turn
// outcomes into their own result and error shape.
func (c *Cluster) replicate(ctx trace.Context, muts []mutation, out []outcome) {
	type sent struct {
		call    *csnet.Call
		sp      trace.Active
		mut     int
		backend int
	}
	var inline [inlineCalls]sent
	calls := inline[:0]
	if n := len(muts) * c.rf; n > len(inline) {
		calls = make([]sent, 0, n)
	}
	var slots [inlineBackends]clientSlot
	bc := c.batchClients(&slots)
	for i := range muts {
		m := &muts[i]
		out[i].set = c.replicaSet(m.key)
		op, name := csnet.OpSetV, "SETV"
		if m.e.Tombstone {
			op, name = csnet.OpDelV, "DELV"
		}
		for _, b := range out[i].set {
			cl, err := bc.get(b)
			if err != nil {
				c.fault(ctx, m, &out[i], b, err, true)
				continue
			}
			sp := c.span(ctx, trace.KindRPC, name, b)
			req := csnet.Request{Op: op, Key: m.key, Value: m.e.Value, Version: m.e.Version, ExpireAt: m.e.ExpireAt, Trace: sp.Context()}
			calls = append(calls, sent{cl.Send(req), sp, i, b})
		}
	}
	for ci := range calls {
		s := &calls[ci]
		o := &out[s.mut]
		resp, err := s.call.ResponseV()
		switch {
		case err != nil:
			// Unreachable or dying: worth replaying when it returns.
			c.fault(ctx, &muts[s.mut], o, s.backend, err, true)
			s.sp.S.Err = true
		case resp.Status == csnet.StatusOK || resp.Status == csnet.StatusExists ||
			resp.Status == csnet.StatusNotFound && muts[s.mut].e.Tombstone:
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
			c.fault(ctx, &muts[s.mut], o, s.backend, statusErr(resp), false)
			s.sp.S.Err = true
		}
		s.sp.Finish()
	}
	for i := range muts {
		m, o := &muts[i], &out[i]
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

// batchClients resolves one pooled client per backend for the life of
// one operation, remembering dial failures so a dead backend is
// reported once instead of re-dialed per key.
type batchClients struct {
	c     *Cluster
	slots []clientSlot // one per backend
}

type clientSlot struct {
	cl     *csnet.Client
	err    error
	dialed bool
}

// inlineBackends is the cluster width whose client slots fit the
// caller's stack buffer; wider clusters allocate theirs.
const inlineBackends = 8

func (c *Cluster) batchClients(buf *[inlineBackends]clientSlot) batchClients {
	if n := len(c.pools); n > len(buf) {
		return batchClients{c, make([]clientSlot, n)}
	}
	return batchClients{c, buf[:]}
}

func (bc *batchClients) get(b int) (*csnet.Client, error) {
	s := &bc.slots[b]
	if !s.dialed {
		s.dialed = true
		s.cl, s.err = bc.c.pools[b].get()
	}
	return s.cl, s.err
}

// mergeBurst is the one repair path under read-repair, hint replay and
// both anti-entropy passes: OpMerge requests pipelined out as they are
// planned, then collected together. A merge is version-aware on the
// replica — it fills holes and fixes stale copies but can never
// overwrite a newer write — so a burst needs no ordering, and a lost
// one costs only the next pass.
type mergeBurst struct {
	c     *Cluster
	kind  trace.Kind // span kind and op each merge records under
	op    string
	calls []mergeCall
}

type mergeCall struct {
	call *csnet.Call
	sp   trace.Active
	key  string
}

// send merges e onto backend b through cl under a child span of ctx.
// Whatever is being pushed at a replica is write-path news the
// coordinator's cache may not have seen: it supersedes the key there.
func (mb *mergeBurst) send(ctx trace.Context, cl *csnet.Client, b int, key string, e store.Entry) {
	mb.c.cacheSupersede(key, e.Version)
	sp := mb.c.span(ctx, mb.kind, mb.op, b)
	mb.calls = append(mb.calls, mergeCall{cl.Send(csnet.MergeRequest(key, e, sp.Context())), sp, key})
}

// collect waits for every reply and returns how many merges the
// replicas applied. reply, when non-nil, sees each one: the version now
// resident (the merged one, or the newer one an Exists reply carries),
// or the error of a merge that was lost or rejected.
func (mb *mergeBurst) collect(reply func(key string, resident uint64, err error)) (applied int) {
	for i := range mb.calls {
		mc := &mb.calls[i]
		resp, err := mc.call.ResponseV()
		if err == nil && resp.Status != csnet.StatusOK && resp.Status != csnet.StatusExists {
			err = statusErr(resp)
		}
		if err == nil {
			mb.c.clock.Observe(resp.Version)
			if resp.Status == csnet.StatusOK {
				applied++
			}
		}
		mc.sp.S.Err = err != nil
		mc.sp.Finish()
		if reply != nil {
			reply(mc.key, resp.Version, err)
		}
	}
	return applied
}
