package member

import "time"

// apply merges one Update a test builds, as merge does one read off
// the wire.
func (t *table) apply(u Update, now time.Time) {
	t.merge([]byte(u.ID), u.State, u.Incarnation, now)
}

// knownIDs returns every tracked member including dead ones, sorted by
// ID: the sync rotation's order.
func (t *table) knownIDs() []string {
	return append([]string(nil), t.ids...)
}

// state reports a member's current state; ok is false for unknown IDs
// and for the local node (the table never stores self).
func (t *table) state(id string) (State, bool) {
	e, ok := t.members[id]
	if !ok {
		return 0, false
	}
	return e.state, true
}
