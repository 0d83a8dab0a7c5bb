package member

import (
	"cmp"
	"math/bits"
	"slices"
)

// broadcast is one queued membership update awaiting dissemination.
type broadcast struct {
	u         Update
	transmits int
}

// broadcasts is the piggyback queue: membership deltas ride on probe
// traffic (pings, acks, syncs) instead of dedicated messages, each
// retransmitted O(log n) times so an update reaches the whole cluster
// with high probability and then stops consuming bandwidth.
type broadcasts struct {
	items []broadcast
	out   []Update // what take hands out, reused by the next take
}

// queue adds an update, superseding any queued update about the same
// member: only the newest claim about a node is worth spreading, and a
// fresh claim restarts the retransmit budget.
func (b *broadcasts) queue(u Update) {
	for i := range b.items {
		if b.items[i].u.ID == u.ID {
			b.items[i] = broadcast{u: u}
			return
		}
	}
	b.items = append(b.items, broadcast{u: u})
}

// retransmitLimit is how many times one update is piggybacked before it
// is dropped: mult * ceil(log2(n+1)), the SWIM dissemination bound.
func retransmitLimit(mult, n int) int {
	if mult < 1 {
		mult = 1
	}
	if n < 1 {
		n = 1
	}
	return mult * bits.Len(uint(n))
}

// take returns up to max updates to piggyback on one outgoing message,
// preferring the least-transmitted (freshest information spreads
// first), and retires updates that have exhausted their budget of
// limit transmissions. The updates are valid until the next take.
func (b *broadcasts) take(max, limit int) []Update {
	if len(b.items) == 0 || max < 1 {
		return nil
	}
	slices.SortStableFunc(b.items, func(x, y broadcast) int { return cmp.Compare(x.transmits, y.transmits) })
	out := b.out[:0]
	kept := b.items[:0]
	for _, it := range b.items {
		if len(out) < max {
			out = append(out, it.u)
			it.transmits++
		}
		if it.transmits < limit {
			kept = append(kept, it)
		}
	}
	// Zero the dropped tail so retired IDs can be collected.
	clear(b.items[len(kept):])
	b.items = kept
	b.out = out
	return out
}

// pending reports how many updates await dissemination.
func (b *broadcasts) pending() int { return len(b.items) }
