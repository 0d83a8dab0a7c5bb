// Package member implements SWIM-style cluster membership over the
// csnet transport: periodic direct probes with indirect ping-req
// fallback, alive -> suspect -> dead transitions guarded by incarnation
// numbers (so a live node can refute a false suspicion), and gossip
// dissemination piggybacked on the probe traffic itself. A periodic
// full-state sync (push-pull anti-entropy) bounds convergence time and
// lets nodes on both sides of a healed partition rediscover each other
// even after they have declared each other dead.
package member

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pdcedu/internal/obs"
)

// SWIM's protocol constants.
const (
	// indirectFanout is how many peers relay an indirect probe after a
	// failed direct ping.
	indirectFanout = 3
	// syncEvery makes every Nth round a full-state push-pull sync
	// instead of a ping. Sync targets rotate over every known member
	// including dead ones — that reach-back is what heals a fully
	// partitioned cluster.
	syncEvery = 4
	// piggyback is the most membership updates one message carries.
	piggyback = 8
	// retransmitMult scales the per-update retransmit budget
	// mult*ceil(log2(n+1)).
	retransmitMult = 3
)

// Config configures a Memberlist. Zero values take the documented
// defaults, chosen for LAN-scale clusters; tests shrink the intervals
// to milliseconds. A node listens before it builds its Memberlist, so
// that ID can be the address the listener bound.
type Config struct {
	// ID is this node's member identity. It doubles as the address
	// peers dial to reach it, so it must be the node's host:port.
	ID string
	// ProbeInterval is the failure-detector period: one probe (or
	// sync) round per tick (default 500ms). A direct ping waits half
	// of it; an indirect probe or a sync waits a whole one.
	ProbeInterval time.Duration
	// SuspicionTimeout is how long a suspect member has to refute
	// before it is declared dead (default 5*ProbeInterval).
	SuspicionTimeout time.Duration
	// ConnTimeout bounds transport dials and connection-level request
	// deadlines (default 2s).
	ConnTimeout time.Duration
	// Transport overrides the default csnet transport; tests plug in
	// an in-memory network to simulate partitions.
	Transport Transport
	// Logf, when non-nil, receives one line per membership transition.
	Logf func(format string, args ...any)
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.ID == "" {
		return cfg, errors.New("member: config needs an ID")
	}
	if len(cfg.ID) > maxField {
		return cfg, fmt.Errorf("member: ID of %d bytes exceeds %d", len(cfg.ID), maxField)
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.SuspicionTimeout <= 0 {
		cfg.SuspicionTimeout = 5 * cfg.ProbeInterval
	}
	if cfg.ConnTimeout <= 0 {
		cfg.ConnTimeout = 2 * time.Second
	}
	return cfg, nil
}

// probeTimeout bounds a direct ping round-trip: half a probe interval.
// An indirect probe or a sync gets twice this budget.
func (m *Memberlist) probeTimeout() time.Duration { return m.cfg.ProbeInterval / 2 }

// eventBuffer is the per-subscriber channel capacity. Transitions are
// rare (state changes only, not probe traffic), so a subscriber that
// drains at all keeps up; if one stalls completely, events are dropped
// rather than wedging the failure detector.
const eventBuffer = 256

// Memberlist is one node's view of the cluster: the SWIM failure
// detector, the gossip dissemination queue, and the membership table.
// All methods are safe for concurrent use.
type Memberlist struct {
	cfg       Config
	transport Transport

	mu        sync.Mutex
	tbl       *table
	bq        broadcasts
	subs      []chan Event
	dropped   uint64
	probeLast string // the member the probe rotation reached last
	syncLast  string // the member the sync rotation reached last
	spare     []byte // an outgoing message's buffer, free for the next exchange
	started   bool
	stopped   bool

	stop chan struct{}
	done chan struct{}
}

// New builds a Memberlist; call Start to begin probing. The node serves
// gossip as soon as its HandleMessage is reachable (see Handler), so a
// list that is registered with a csnet server answers probes even
// before Start.
func New(cfg Config) (*Memberlist, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m := &Memberlist{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	m.transport = cfg.Transport
	if m.transport == nil {
		m.transport = newCsnetTransport(cfg.ConnTimeout)
	}
	m.tbl = newTable(cfg.ID, m.onChange)
	return m, nil
}

// onChange receives every accepted membership transition with m.mu
// held: it queues the update for gossip and fans the event out to
// subscribers (non-blocking; a full subscriber drops).
func (m *Memberlist) onChange(u Update, local bool) {
	switch {
	case u.State == StateSuspect:
		suspectTrans.Inc()
	case u.State == StateDead:
		deadTrans.Inc()
	case local && u.ID == m.cfg.ID && u.State == StateAlive:
		// The only local self-alive transition is the refutation path:
		// this node heard itself suspected or dead and re-asserted life
		// with a higher incarnation.
		refuteTrans.Inc()
	}
	m.bq.queue(u)
	if m.cfg.Logf != nil {
		origin := "gossip"
		if local {
			origin = "local"
		}
		m.cfg.Logf("member %s: %s -> %s (incarnation %d, %s)", m.cfg.ID, u.ID, u.State, u.Incarnation, origin)
	}
	ev := Event{ID: u.ID, State: u.State, Incarnation: u.Incarnation}
	for _, ch := range m.subs {
		select {
		case ch <- ev:
		default:
			m.dropped++
		}
	}
}

// ID returns this node's member identity.
func (m *Memberlist) ID() string { return m.cfg.ID }

// Members returns a snapshot of the membership table (self included),
// sorted by ID.
func (m *Memberlist) Members() []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tbl.snapshot()
}

// NumAlive reports how many members (self included) are not dead.
func (m *Memberlist) NumAlive() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tbl.aliveCount()
}

// Subscribe returns a channel of membership transitions. Events are
// delivered best-effort: a subscriber that stops draining loses events
// rather than blocking the detector (see Dropped).
func (m *Memberlist) Subscribe() <-chan Event {
	ch := make(chan Event, eventBuffer)
	m.mu.Lock()
	m.subs = append(m.subs, ch)
	m.mu.Unlock()
	return ch
}

// Dropped reports how many events were discarded on full subscriber
// channels.
func (m *Memberlist) Dropped() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropped
}

// Start launches the probe loop. It is a no-op after the first call.
func (m *Memberlist) Start() {
	m.mu.Lock()
	if m.started || m.stopped {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	go m.run()
}

// Stop halts the probe loop and closes the transport. Safe to call
// more than once.
func (m *Memberlist) Stop() error {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return nil
	}
	m.stopped = true
	started := m.started
	m.mu.Unlock()
	close(m.stop)
	if started {
		<-m.done
	}
	return m.transport.Close()
}

// Join introduces this node to the cluster by full-syncing with each
// seed peer. It succeeds if at least one peer answered; gossip spreads
// the new member from there. Joining an empty peer list is a no-op (a
// bootstrap node).
func (m *Memberlist) Join(peers ...string) error {
	var firstErr error
	joined := 0
	for _, peer := range peers {
		if peer == m.cfg.ID {
			continue
		}
		if err := m.syncWith(peer); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("member: join %s: %w", peer, err)
			}
			continue
		}
		joined++
	}
	if joined == 0 && firstErr != nil {
		return firstErr
	}
	return nil
}

// run is the SWIM protocol period: one round per tick.
func (m *Memberlist) run() {
	defer close(m.done)
	ticker := time.NewTicker(m.cfg.ProbeInterval)
	defer ticker.Stop()
	for n := 1; ; n++ {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		m.round(n)
	}
}

// round runs protocol round n: it probes the next member of the probe
// rotation — or, every syncEvery-th round, full-syncs with the next of
// the sync rotation — then expires overdue suspicions. Both rotations
// walk the members in ID order, so each member is visited once per
// cycle: the SWIM round-robin that bounds first-detection time. The
// sync rotation deliberately includes dead members: syncing with a
// node we believe dead (and that may believe us dead) is the
// reconciliation path after a healed partition.
func (m *Memberlist) round(n int) {
	if n%syncEvery == 0 {
		if peer, ok := m.nextTarget(&m.syncLast, true); ok {
			_ = m.syncWith(peer)
		}
	} else if target, ok := m.nextTarget(&m.probeLast, false); ok {
		m.probe(target)
	}
	m.mu.Lock()
	m.tbl.sweep(time.Now(), m.cfg.SuspicionTimeout)
	m.mu.Unlock()
}

// nextTarget moves a rotation on from the member *last it reached (a
// field of m, guarded by m.mu) and returns the member it reaches now.
func (m *Memberlist) nextTarget(last *string, withDead bool) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id, ok := m.tbl.next(*last, withDead)
	if ok {
		*last = id
	}
	return id, ok
}

// encode appends one outgoing message of kind to dst, with m.mu held.
// A sync or its ack carries every table row, self included — the
// anti-entropy path bypasses the piggyback budget and must carry
// everything, up to the most a message holds; any other kind carries
// the piggyback queue's next updates.
func (m *Memberlist) encode(dst []byte, kind msgKind, target string) []byte {
	if kind == msgSync || kind == msgSyncAck {
		rows := min(m.tbl.rows(), maxField)
		dst = appendHeader(dst, kind, m.cfg.ID, target, rows)
		for i := 0; i < rows; i++ {
			r := m.tbl.row(i)
			dst = appendUpdate(dst, r.ID, r.State, r.Incarnation)
		}
		return dst
	}
	limit := retransmitLimit(retransmitMult, m.tbl.aliveCount())
	updates := m.bq.take(piggyback, limit)
	dst = appendHeader(dst, kind, m.cfg.ID, target, len(updates))
	for _, u := range updates {
		dst = appendUpdate(dst, u.ID, u.State, u.Incarnation)
	}
	return dst
}

// apply merges a parsed message into the table, with m.mu held.
// Hearing any message from a peer also (re)introduces the sender.
func (m *Memberlist) apply(in inbound) {
	now := time.Now()
	m.tbl.heard(in.from, now)
	for i := 0; i < in.count; i++ {
		id, st, inc := in.next()
		m.tbl.merge(id, st, inc, now)
	}
}

// exchange sends peer one message of kind, applies the reply and
// returns the reply's kind. The message is encoded into spare, the
// buffer the last exchange to finish left there — so the run loop's
// rounds, one at a time, reuse one buffer, and only an exchange running
// beside another allocates its own. The transport is done with the
// message when Exchange returns: csnet's Send copies it into a frame
// of its own first.
func (m *Memberlist) exchange(peer string, kind msgKind, target string, timeout time.Duration) (msgKind, error) {
	m.mu.Lock()
	msg := m.encode(m.spare[:0], kind, target)
	m.spare = nil
	m.mu.Unlock()
	reply, err := m.transport.Exchange(peer, msg, timeout)
	var in inbound
	if err == nil {
		in, err = parseMessage(reply)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.spare = msg
	if err != nil {
		return 0, err
	}
	m.apply(in)
	return in.kind, nil
}

// probe runs one SWIM failure-detection round against target: direct
// ping, then indirectFanout relayed ping-reqs, then suspicion.
func (m *Memberlist) probe(target string) {
	start := obs.StartTimer()
	if kind, err := m.exchange(target, msgPing, "", m.probeTimeout()); err == nil && kind == msgAck {
		// Only acked direct pings record an RTT: a timed-out probe
		// measures the timeout, not the peer.
		probeRTT.ObserveSince(start)
		return
	}
	if m.indirectProbe(target) {
		return
	}
	m.mu.Lock()
	m.tbl.suspect(target, time.Now())
	m.mu.Unlock()
}

// indirectProbe asks up to indirectFanout alive peers to ping target on
// our behalf, in parallel; one relayed ack clears the target. This is
// SWIM's defense against false positives from a lossy or congested
// direct path: the target is only suspected when several vantage points
// agree it is unreachable.
func (m *Memberlist) indirectProbe(target string) bool {
	m.mu.Lock()
	var helpers []string
	for _, id := range m.tbl.probeTargets() {
		if id != target {
			helpers = append(helpers, id)
		}
	}
	m.mu.Unlock()
	if len(helpers) > indirectFanout {
		helpers = helpers[:indirectFanout]
	}
	if len(helpers) == 0 {
		return false
	}
	acks := make(chan bool, len(helpers))
	for _, h := range helpers {
		go func() {
			kind, err := m.exchange(h, msgPingReq, target, 2*m.probeTimeout())
			acks <- err == nil && kind == msgAck
		}()
	}
	ok := false
	for range helpers {
		ok = <-acks || ok
	}
	return ok
}

// syncWith performs one push-pull anti-entropy exchange with peer.
func (m *Memberlist) syncWith(peer string) error {
	kind, err := m.exchange(peer, msgSync, "", 2*m.probeTimeout())
	if err != nil {
		return err
	}
	if kind != msgSyncAck {
		return fmt.Errorf("member: sync with %s answered %d, want syncAck", peer, kind)
	}
	return nil
}

// HandleMessage serves one incoming SWIM message (the server side of
// Exchange) and returns the encoded reply. Wire it to a csnet server
// via Handler, or call it directly from a test transport.
func (m *Memberlist) HandleMessage(b []byte) ([]byte, error) {
	return m.handle(nil, b)
}

// handle serves one incoming message and appends the reply to dst. The
// message is parsed and applied where it lies, so serving a known
// sender allocates nothing but a reply that outgrows dst.
func (m *Memberlist) handle(dst, b []byte) ([]byte, error) {
	in, err := parseMessage(b)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.apply(in)
	m.mu.Unlock()
	var reply msgKind
	switch in.kind {
	case msgPing:
		reply = msgAck
	case msgSync:
		reply = msgSyncAck
	case msgPingReq:
		reply = m.relay(in.target)
	default:
		return nil, fmt.Errorf("member: unexpected request kind %d", in.kind)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.encode(dst, reply, ""), nil
}

// relay serves a ping-req: it pings target on the asker's behalf and
// answers msgAck if target acked, msgNack if not.
func (m *Memberlist) relay(target []byte) msgKind {
	if string(target) == m.cfg.ID {
		// Asked to probe ourselves: trivially alive.
		return msgAck
	}
	if kind, err := m.exchange(string(target), msgPing, "", m.probeTimeout()); err != nil || kind != msgAck {
		return msgNack
	}
	return msgAck
}
