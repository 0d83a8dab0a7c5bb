package main

import (
	"fmt"
	"sort"
	"sync"
)

// ReplicatedKV is an n-replica in-memory key-value store built to
// contrast two consistency models. In sequential mode every write goes
// to all replicas synchronously before returning, so any replica read
// observes the single global write order. In eventual mode a write
// lands only on the replica it was issued at; replicas diverge until
// Gossip exchanges state and last-writer-wins resolves conflicts.
type ReplicatedKV struct {
	mu         sync.Mutex
	sequential bool
	replicas   []map[string]versioned
	clock      uint64 // logical clock ordering all writes (LWW tiebreak)
}

// versioned is a value stamped with its logical write time and origin
// replica; higher (ts, origin) wins merges.
type versioned struct {
	val    string
	ts     uint64
	origin int
}

func (a versioned) newer(b versioned) bool {
	if a.ts != b.ts {
		return a.ts > b.ts
	}
	return a.origin > b.origin
}

// NewReplicatedKV creates a store with n replicas; sequential selects
// the consistency model.
func NewReplicatedKV(n int, sequential bool) (*ReplicatedKV, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: replica count %d must be at least 1", n)
	}
	r := &ReplicatedKV{sequential: sequential, replicas: make([]map[string]versioned, n)}
	for i := range r.replicas {
		r.replicas[i] = map[string]versioned{}
	}
	return r, nil
}

// Sequential reports the consistency model.
func (r *ReplicatedKV) Sequential() bool { return r.sequential }

// Replicas reports the replica count.
func (r *ReplicatedKV) Replicas() int { return len(r.replicas) }

func (r *ReplicatedKV) checkReplica(replica int) error {
	if replica < 0 || replica >= len(r.replicas) {
		return fmt.Errorf("dist: replica %d out of range [0,%d)", replica, len(r.replicas))
	}
	return nil
}

// Write stores key=val at the given replica. Sequential mode applies
// the write to every replica before returning (synchronous write-all);
// eventual mode applies it locally only.
func (r *ReplicatedKV) Write(replica int, key, val string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.checkReplica(replica); err != nil {
		return err
	}
	r.clock++
	v := versioned{val: val, ts: r.clock, origin: replica}
	if r.sequential {
		for i := range r.replicas {
			r.replicas[i][key] = v
		}
		return nil
	}
	r.replicas[replica][key] = v
	return nil
}

// Read returns the value of key as seen by the given replica; ok is
// false if that replica has no value yet.
func (r *ReplicatedKV) Read(replica int, key string) (val string, ok bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.checkReplica(replica); err != nil {
		return "", false, err
	}
	v, ok := r.replicas[replica][key]
	return v.val, ok, nil
}

// Divergent returns the sorted set of keys on which the replicas
// currently disagree (different values, or present on some replicas and
// missing on others). Sequential stores always return nil.
func (r *ReplicatedKV) Divergent() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	union := map[string]struct{}{}
	for _, rep := range r.replicas {
		for k := range rep {
			union[k] = struct{}{}
		}
	}
	var out []string
	for k := range union {
		first, haveFirst := r.replicas[0][k]
		agree := haveFirst
		for _, rep := range r.replicas[1:] {
			v, ok := rep[k]
			if !ok || v != first {
				agree = false
				break
			}
		}
		if !agree {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Gossip performs a full anti-entropy exchange: every replica learns
// every other replica's entries, conflicts resolved last-writer-wins by
// logical timestamp. Afterwards Divergent returns nil.
func (r *ReplicatedKV) Gossip() {
	r.mu.Lock()
	defer r.mu.Unlock()
	merged := map[string]versioned{}
	for _, rep := range r.replicas {
		for k, v := range rep {
			if cur, ok := merged[k]; !ok || v.newer(cur) {
				merged[k] = v
			}
		}
	}
	for i := range r.replicas {
		for k, v := range merged {
			r.replicas[i][k] = v
		}
	}
}
