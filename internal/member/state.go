package member

import (
	"slices"
	"time"
)

// State is a member's health as seen by the local failure detector.
type State uint8

const (
	// StateAlive means the member is (believed) healthy.
	StateAlive State = iota + 1
	// StateSuspect means a probe round failed; the member has until the
	// suspicion timeout to refute with a higher incarnation.
	StateSuspect
	// StateDead means the suspicion timeout expired (or a peer's did).
	StateDead
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return "unknown"
	}
}

// Update is one membership claim disseminated by gossip: "node ID is in
// State at Incarnation". Incarnation numbers are owned by the node they
// describe — only the node itself increments its incarnation, which is
// what lets it refute a false suspicion authoritatively.
type Update struct {
	ID          string
	State       State
	Incarnation uint64
}

// Event is a local membership-table transition delivered to
// subscribers. It carries the update that caused the transition.
type Event struct {
	ID          string
	State       State
	Incarnation uint64
}

// Member is a snapshot row of the membership table.
type Member struct {
	ID          string
	State       State
	Incarnation uint64
}

// entry is one tracked peer.
type entry struct {
	id    string // the table's own copy of the member's ID
	state State
	inc   uint64
	since time.Time // when state last changed; suspicion clock
}

// table is the SWIM membership state machine: it applies gossiped
// updates under the protocol's precedence rules, times suspicions out
// into deaths, and refutes claims about the local node. It is pure
// bookkeeping — no I/O, no locks — so Memberlist serializes access and
// the tests can drive it deterministically.
//
// Precedence (per member, comparing an incoming update u to the current
// entry cur): higher incarnation always wins; at equal incarnation
// dead > suspect > alive. Alive therefore only overrides suspicion or
// death when the member has re-incarnated, which is exactly the
// refutation path.
//
// Members are never removed, so the sorted ID list — which the probe
// and sync rotations and every sync's rows walk — changes only when a
// member is first heard of. Its strings are the table's own: every
// Update and Event the table originates carries one of them, never a
// piece of the message that named the member.
type table struct {
	self    string
	selfInc uint64
	members map[string]*entry
	ids     []string // the keys of members, sorted
	selfAt  int      // where self sorts among ids

	// onChange receives every accepted transition plus locally
	// originated claims (refutations, suspicion expiries) for gossip
	// re-broadcast and event delivery.
	onChange func(u Update, local bool)
}

func newTable(self string, onChange func(Update, bool)) *table {
	return &table{
		self:     self,
		selfInc:  1,
		members:  map[string]*entry{},
		onChange: onChange,
	}
}

// merge applies one gossiped update about id, which may alias a
// message: a member already known is looked up in place, and only one
// never heard of costs a string. Updates about the local node are
// never stored: a claim that we are suspect or dead at our current (or
// later) incarnation is refuted by bumping our incarnation and
// re-broadcasting alive.
func (t *table) merge(id []byte, st State, inc uint64, now time.Time) {
	if string(id) == t.self {
		if st != StateAlive && inc >= t.selfInc {
			t.selfInc = inc + 1
			t.onChange(Update{ID: t.self, State: StateAlive, Incarnation: t.selfInc}, true)
		}
		return
	}
	cur, known := t.members[string(id)]
	if !known {
		t.add(&entry{id: string(id), state: st, inc: inc, since: now})
		return
	}
	accept := false
	switch {
	case inc > cur.inc:
		accept = true
	case inc == cur.inc:
		accept = st > cur.state
	}
	if !accept {
		return
	}
	cur.state = st
	cur.inc = inc
	cur.since = now
	t.onChange(Update{ID: cur.id, State: st, Incarnation: inc}, false)
}

// add records a member heard of for the first time.
func (t *table) add(e *entry) {
	i, _ := slices.BinarySearch(t.ids, e.id)
	t.ids = slices.Insert(t.ids, i, e.id)
	if e.id < t.self {
		t.selfAt++
	}
	t.members[e.id] = e
	t.onChange(Update{ID: e.id, State: e.state, Incarnation: e.inc}, false)
}

// heard records a message's sender: one never heard of is recorded
// alive at incarnation 0, which real gossip about it then overrides.
func (t *table) heard(from []byte, now time.Time) {
	if len(from) == 0 || string(from) == t.self {
		return
	}
	if _, known := t.members[string(from)]; !known {
		t.merge(from, StateAlive, 0, now)
	}
}

// suspect marks a member suspect at its current incarnation — the local
// probe verdict, as opposed to a gossiped claim.
func (t *table) suspect(id string, now time.Time) {
	cur, ok := t.members[id]
	if !ok || cur.state != StateAlive {
		return
	}
	cur.state = StateSuspect
	cur.since = now
	t.onChange(Update{ID: cur.id, State: StateSuspect, Incarnation: cur.inc}, true)
}

// sweep expires suspicions older than timeout into deaths and returns
// how many members it declared dead.
func (t *table) sweep(now time.Time, timeout time.Duration) int {
	dead := 0
	for _, e := range t.members {
		if e.state == StateSuspect && now.Sub(e.since) >= timeout {
			e.state = StateDead
			e.since = now
			dead++
			t.onChange(Update{ID: e.id, State: StateDead, Incarnation: e.inc}, true)
		}
	}
	return dead
}

// rows reports how many rows the table has, the local node's included.
func (t *table) rows() int { return len(t.ids) + 1 }

// row returns the i-th row in ID order, the local node's among them.
func (t *table) row(i int) Member {
	switch {
	case i == t.selfAt:
		return Member{ID: t.self, State: StateAlive, Incarnation: t.selfInc}
	case i > t.selfAt:
		i--
	}
	e := t.members[t.ids[i]]
	return Member{ID: e.id, State: e.state, Incarnation: e.inc}
}

// snapshot returns every known member plus the local node, sorted by ID.
func (t *table) snapshot() []Member {
	out := make([]Member, t.rows())
	for i := range out {
		out[i] = t.row(i)
	}
	return out
}

// next returns the first member after id in ID order, wrapping around:
// one step of a rotation that visits every member once a cycle. The
// probe rotation skips dead members; the anti-entropy sync rotation
// (withDead) must reach them, so a healed partition reconciles. ok is
// false when no member qualifies.
func (t *table) next(id string, withDead bool) (string, bool) {
	i, found := slices.BinarySearch(t.ids, id)
	if found {
		i++
	}
	for k := range t.ids {
		next := t.ids[(i+k)%len(t.ids)]
		if withDead || t.members[next].state != StateDead {
			return next, true
		}
	}
	return "", false
}

// probeTargets returns the non-dead peers, sorted by ID.
func (t *table) probeTargets() []string {
	var out []string
	for _, id := range t.ids {
		if t.members[id].state != StateDead {
			out = append(out, id)
		}
	}
	return out
}

// aliveCount reports how many members (including self) are not dead;
// the gossip retransmit limit scales with it.
func (t *table) aliveCount() int {
	n := 1
	for _, e := range t.members {
		if e.state != StateDead {
			n++
		}
	}
	return n
}
