package main

import (
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"

	"pdcedu/internal/dist"
)

// Balancer assigns requests to one of a fixed set of servers. All
// implementations are safe for concurrent use. The strategies are
// compared by SimulateLoad; dist.Cluster uses none of them — its reads
// ask each key's primary first.
type Balancer interface {
	// Name identifies the strategy in reports.
	Name() string
	// Pick returns the server index for a request with the given key.
	// Strategies that track in-flight load count the request as active
	// until Done is called with the returned index.
	Pick(key string) int
	// Done signals completion of a request previously assigned to
	// server; stateless strategies ignore it.
	Done(server int)
}

// RoundRobin cycles through servers in order — perfect counts, no key
// affinity, blind to uneven request cost.
type RoundRobin struct {
	n    int
	next atomic.Uint64
}

// NewRoundRobin creates a round-robin balancer over n servers.
func NewRoundRobin(n int) *RoundRobin {
	if n < 1 {
		n = 1
	}
	return &RoundRobin{n: n}
}

// Name implements Balancer.
func (r *RoundRobin) Name() string { return "round-robin" }

// Pick implements Balancer.
func (r *RoundRobin) Pick(key string) int {
	return int((r.next.Add(1) - 1) % uint64(r.n))
}

// Done implements Balancer.
func (r *RoundRobin) Done(server int) {}

// ringBalancer is the coordinator's consistent-hash ring as a Balancer:
// sticky, key-affine routing that tracks no load.
type ringBalancer struct{ *dist.ConsistentHash }

// NewConsistentHash creates a ring of n nodes with vnodes virtual nodes
// each (see dist.NewConsistentHash) and balances over it.
func NewConsistentHash(n, vnodes int) Balancer {
	return ringBalancer{dist.NewConsistentHash(n, vnodes)}
}

// Name implements Balancer.
func (ringBalancer) Name() string { return "consistent-hash" }

// Done implements Balancer; key-affine routing tracks no load.
func (ringBalancer) Done(server int) {}

// LeastLoaded sends each request to the server with the fewest requests
// in flight — the global-knowledge ideal the other strategies are
// measured against.
type LeastLoaded struct {
	mu   sync.Mutex
	load []int
	next int // rotating scan start so load ties spread over servers
}

// NewLeastLoaded creates a least-loaded balancer over n servers.
func NewLeastLoaded(n int) *LeastLoaded {
	if n < 1 {
		n = 1
	}
	return &LeastLoaded{load: make([]int, n)}
}

// Name implements Balancer.
func (l *LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Balancer.
func (l *LeastLoaded) Pick(key string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.load)
	best := l.next % n
	for i := 1; i < n; i++ {
		s := (l.next + i) % n
		if l.load[s] < l.load[best] {
			best = s
		}
	}
	l.next = (l.next + 1) % n
	l.load[best]++
	return best
}

// Done implements Balancer.
func (l *LeastLoaded) Done(server int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if server >= 0 && server < len(l.load) && l.load[server] > 0 {
		l.load[server]--
	}
}

// PowerOfTwo samples two distinct servers at random and picks the less
// loaded — within a constant factor of least-loaded using only two load
// probes per request (Mitzenmacher's "power of two choices").
type PowerOfTwo struct {
	mu   sync.Mutex
	rng  *rand.Rand
	load []int
}

// NewPowerOfTwo creates a power-of-two-choices balancer over n servers;
// seed fixes the sampling sequence for reproducible labs.
func NewPowerOfTwo(n int, seed int64) *PowerOfTwo {
	if n < 1 {
		n = 1
	}
	return &PowerOfTwo{rng: rand.New(rand.NewSource(seed)), load: make([]int, n)}
}

// Name implements Balancer.
func (p *PowerOfTwo) Name() string { return "power-of-two" }

// Pick implements Balancer.
func (p *PowerOfTwo) Pick(key string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.load)
	if n == 1 {
		p.load[0]++
		return 0
	}
	a := p.rng.Intn(n)
	b := p.rng.Intn(n - 1)
	if b >= a {
		b++ // second sample drawn from the remaining n-1 servers
	}
	if p.load[b] < p.load[a] {
		a = b
	}
	p.load[a]++
	return a
}

// Done implements Balancer.
func (p *PowerOfTwo) Done(server int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if server >= 0 && server < len(p.load) && p.load[server] > 0 {
		p.load[server]--
	}
}

// Report summarises one load-balancing simulation.
type Report struct {
	// Strategy is the Balancer name.
	Strategy string
	// Max and Min are the most and fewest requests any server received.
	Max, Min int
	// Imbalance is the peak-to-mean ratio Max/(reqs/servers): 1.0 is a
	// perfect split, 2.0 means the hottest server saw twice its share.
	Imbalance float64
}

// SimulateLoad drives reqs requests through b and reports the per-server
// totals. Requests draw their key uniformly from a space of `keys`
// distinct keys and hold their server for a service time of 1-16 ticks
// (one tick per arrival), so load-tracking strategies see a realistic
// in-flight population. The rng seed makes every run reproducible.
func SimulateLoad(b Balancer, servers, reqs, keys int, seed int64) Report {
	if servers < 1 {
		servers = 1
	}
	if keys < 1 {
		keys = 1
	}
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, servers)
	type inflight struct {
		end    int
		server int
	}
	var active []inflight
	for t := 0; t < reqs; t++ {
		// Retire requests whose service time has elapsed.
		kept := active[:0]
		for _, f := range active {
			if f.end <= t {
				b.Done(f.server)
			} else {
				kept = append(kept, f)
			}
		}
		active = kept
		key := "key-" + strconv.Itoa(rng.Intn(keys))
		dur := 1 + rng.Intn(16)
		s := b.Pick(key)
		if s < 0 || s >= servers {
			s = ((s % servers) + servers) % servers
		}
		counts[s]++
		active = append(active, inflight{end: t + dur, server: s})
	}
	for _, f := range active {
		b.Done(f.server)
	}
	max, min := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
	}
	ideal := float64(reqs) / float64(servers)
	return Report{Strategy: b.Name(), Max: max, Min: min, Imbalance: float64(max) / ideal}
}
