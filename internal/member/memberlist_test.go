package member

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// memNet is an in-memory transport fabric: every node's Exchange is a
// direct call into the target's HandleMessage, with per-link cuts to
// simulate partitions deterministically. Indirect probes work
// naturally, because a relayed ping runs on the relay's own transport.
type memNet struct {
	mu    sync.Mutex
	nodes map[string]*Memberlist
	cut   map[string]bool // "a|b" with a < b
}

func newMemNet() *memNet {
	return &memNet{nodes: map[string]*Memberlist{}, cut: map[string]bool{}}
}

func linkKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Cut severs the links between id and each of the given peers (both
// directions); Heal restores them.
func (n *memNet) Cut(id string, peers ...string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range peers {
		n.cut[linkKey(id, p)] = true
	}
}

func (n *memNet) Heal(id string, peers ...string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range peers {
		delete(n.cut, linkKey(id, p))
	}
}

// Isolate cuts id off from every other node.
func (n *memNet) Isolate(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for other := range n.nodes {
		if other != id {
			n.cut[linkKey(id, other)] = true
		}
	}
}

func (n *memNet) HealAll(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for other := range n.nodes {
		delete(n.cut, linkKey(id, other))
	}
}

// transport returns the Transport wired to node id.
func (n *memNet) transport(id string) Transport { return &memTransport{net: n, self: id} }

type memTransport struct {
	net  *memNet
	self string
}

func (t *memTransport) Exchange(peer string, msg []byte, timeout time.Duration) ([]byte, error) {
	t.net.mu.Lock()
	target := t.net.nodes[peer]
	severed := t.net.cut[linkKey(t.self, peer)]
	t.net.mu.Unlock()
	if target == nil || severed {
		return nil, errors.New("memnet: unreachable")
	}
	return target.HandleMessage(msg)
}

func (t *memTransport) Close() error { return nil }

// newTestNode builds one memberlist on net with fast test timings.
func newTestNode(t *testing.T, net *memNet, id string) *Memberlist {
	t.Helper()
	ml, err := New(Config{
		ID:               id,
		ProbeInterval:    10 * time.Millisecond,
		SuspicionTimeout: 60 * time.Millisecond,
		Transport:        net.transport(id),
	})
	if err != nil {
		t.Fatal(err)
	}
	net.mu.Lock()
	net.nodes[id] = ml
	net.mu.Unlock()
	return ml
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// memberState returns ml's view of peer.
func memberState(ml *Memberlist, peer string) (State, bool) {
	for _, m := range ml.Members() {
		if m.ID == peer {
			return m.State, true
		}
	}
	return 0, false
}

// allSee reports whether every memberlist sees every id in the given
// state.
func allSee(lists []*Memberlist, ids []string, want State) bool {
	for _, ml := range lists {
		for _, id := range ids {
			if id == ml.ID() {
				continue
			}
			st, ok := memberState(ml, id)
			if !ok || st != want {
				return false
			}
		}
	}
	return true
}

// TestMemberJoinConvergence: four nodes join through one seed; gossip
// spreads the rest until every node sees every other alive.
func TestMemberJoinConvergence(t *testing.T) {
	net := newMemNet()
	ids := []string{"n0", "n1", "n2", "n3"}
	lists := make([]*Memberlist, len(ids))
	for i, id := range ids {
		lists[i] = newTestNode(t, net, id)
	}
	for _, ml := range lists {
		defer ml.Stop()
		if err := ml.Join("n0"); err != nil && ml.ID() != "n0" {
			t.Fatalf("join(%s): %v", ml.ID(), err)
		}
		ml.Start()
	}
	waitFor(t, 5*time.Second, "full mesh alive", func() bool {
		for _, ml := range lists {
			if ml.NumAlive() != len(ids) {
				return false
			}
		}
		return allSee(lists, ids, StateAlive)
	})
}

// TestMemberDeathDetection: a crashed node (isolated from everyone) is
// suspected, then declared dead cluster-wide once the suspicion timeout
// expires, and a subscriber hears the transition.
func TestMemberDeathDetection(t *testing.T) {
	net := newMemNet()
	ids := []string{"n0", "n1", "n2"}
	lists := make([]*Memberlist, len(ids))
	for i, id := range ids {
		lists[i] = newTestNode(t, net, id)
	}
	events := lists[0].Subscribe()
	for _, ml := range lists {
		defer ml.Stop()
		if err := ml.Join("n0"); err != nil && ml.ID() != "n0" {
			t.Fatal(err)
		}
		ml.Start()
	}
	waitFor(t, 5*time.Second, "initial convergence", func() bool {
		return allSee(lists, ids, StateAlive)
	})

	// Crash n2: its process is "gone", so stop its loop and sever it.
	if err := lists[2].Stop(); err != nil {
		t.Fatal(err)
	}
	net.Isolate("n2")

	survivors := lists[:2]
	waitFor(t, 5*time.Second, "n2 declared dead", func() bool {
		return allSee(survivors, []string{"n2"}, StateDead)
	})
	for _, ml := range survivors {
		if n := ml.NumAlive(); n != 2 {
			t.Errorf("%s NumAlive = %d after death, want 2", ml.ID(), n)
		}
	}
	// The subscriber saw n2 leave the alive set (suspect and/or dead).
	sawDead := false
	for done := false; !done; {
		select {
		case ev := <-events:
			if ev.ID == "n2" && ev.State == StateDead {
				sawDead = true
				done = true
			}
		default:
			done = true
		}
	}
	if !sawDead {
		t.Error("subscriber never heard n2's dead transition")
	}
}

// TestMemberIndirectProbeAvoidsFalsePositive: with only the direct
// a<->b link cut, indirect ping-reqs relayed through c keep both sides
// alive — no suspicion, no death, for many suspicion windows.
func TestMemberIndirectProbeAvoidsFalsePositive(t *testing.T) {
	net := newMemNet()
	ids := []string{"a", "b", "c"}
	lists := make([]*Memberlist, len(ids))
	for i, id := range ids {
		lists[i] = newTestNode(t, net, id)
	}
	// Two join rounds with the probe loops still stopped: the second
	// sync pulls the members the first round could not have known yet,
	// so the mesh converges deterministically before any link is cut.
	for round := 0; round < 2; round++ {
		for _, ml := range lists {
			if err := ml.Join("c"); err != nil && ml.ID() != "c" {
				t.Fatal(err)
			}
		}
	}
	for _, ml := range lists {
		defer ml.Stop()
	}
	if !allSee(lists, ids, StateAlive) {
		t.Fatal("mesh not converged after two join rounds")
	}
	// Cut the direct path before probing starts; a and b can still
	// reach each other through c.
	net.Cut("a", "b")
	for _, ml := range lists {
		ml.Start()
	}
	// Run for several suspicion windows; nobody may leave the alive set.
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		if !allSee(lists, ids, StateAlive) {
			t.Fatal("a partially partitioned member left the alive set despite indirect probes")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMemberPartitionFlap: a fully partitioned node is declared dead by
// the majority (and declares them dead right back); healing the
// partition lets the periodic sync reach across, the flapped node
// refutes with a higher incarnation, and the whole cluster converges
// back to alive — the classic flap, race-clean.
func TestMemberPartitionFlap(t *testing.T) {
	net := newMemNet()
	ids := []string{"n0", "n1", "n2"}
	lists := make([]*Memberlist, len(ids))
	for i, id := range ids {
		lists[i] = newTestNode(t, net, id)
	}
	for _, ml := range lists {
		defer ml.Stop()
		if err := ml.Join("n0"); err != nil && ml.ID() != "n0" {
			t.Fatal(err)
		}
		ml.Start()
	}
	waitFor(t, 5*time.Second, "initial convergence", func() bool {
		return allSee(lists, ids, StateAlive)
	})
	var incBefore uint64
	if m, ok := memberState(lists[0], "n2"); ok && m == StateAlive {
		for _, row := range lists[0].Members() {
			if row.ID == "n2" {
				incBefore = row.Incarnation
			}
		}
	}

	net.Isolate("n2")
	majority := lists[:2]
	waitFor(t, 5*time.Second, "majority declares n2 dead", func() bool {
		return allSee(majority, []string{"n2"}, StateDead)
	})
	// The isolated side symmetrically gives up on the majority.
	waitFor(t, 5*time.Second, "n2 declares the majority dead", func() bool {
		return allSee(lists[2:], []string{"n0", "n1"}, StateDead)
	})

	net.HealAll("n2")
	waitFor(t, 10*time.Second, "post-heal reconvergence", func() bool {
		return allSee(lists, ids, StateAlive)
	})
	// The comeback was a refutation: n2's incarnation moved past the one
	// the dead claim was issued at.
	for _, row := range lists[0].Members() {
		if row.ID == "n2" && row.Incarnation <= incBefore {
			t.Errorf("n2 incarnation %d after flap, want > %d (refutation)", row.Incarnation, incBefore)
		}
	}
}

// TestMemberWireRoundTripFuzz round-trips randomized messages through
// the wire codec to pin encode/decode symmetry at the Memberlist level.
func TestMemberWireRoundTripFuzz(t *testing.T) {
	for i := 0; i < 50; i++ {
		msg := message{
			Kind:   msgKind(i%6) + msgPing,
			From:   fmt.Sprintf("node-%d", i),
			Target: fmt.Sprintf("target-%d", i%3),
		}
		for j := 0; j <= i%5; j++ {
			msg.Updates = append(msg.Updates, Update{
				ID:          fmt.Sprintf("m-%d-%d", i, j),
				State:       State(j%3) + StateAlive,
				Incarnation: uint64(i * j),
			})
		}
		b, err := encodeMessage(msg)
		if err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
		got, err := decodeMessage(b)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got.Kind != msg.Kind || got.From != msg.From || got.Target != msg.Target ||
			len(got.Updates) != len(msg.Updates) {
			t.Fatalf("round trip %d: %+v != %+v", i, got, msg)
		}
		for j := range msg.Updates {
			if got.Updates[j] != msg.Updates[j] {
				t.Fatalf("round trip %d update %d: %+v != %+v", i, j, got.Updates[j], msg.Updates[j])
			}
		}
	}
}
