package store

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// model is the flat reference a real engine is cross-checked against:
// one map, straight-line transition rules, no sharding, no locking, no
// bookkeeping — if an engine and the model ever disagree, the engine's
// machinery (shard routing, live counters, sweep rotation) has a bug.
type model struct {
	data map[string]Entry
	now  func() time.Time
}

func (m *model) get(k string) (Entry, bool) {
	e, ok := m.data[k]
	if !ok || e.Tombstone {
		return Entry{}, false
	}
	return e, true
}

func (m *model) set(k string, v []byte, ver uint64) {
	m.data[k] = Entry{Value: append([]byte(nil), v...), Version: ver}
}

func (m *model) del(k string, ver uint64) {
	m.data[k] = Entry{Version: ver, Tombstone: true}
}

func (m *model) merge(k string, e Entry) bool {
	if cur, ok := m.data[k]; ok && !e.Wins(cur) {
		return false
	}
	e.Value = append([]byte(nil), e.Value...)
	if e.Tombstone {
		e.Value = nil
	}
	m.data[k] = e
	return true
}

func (m *model) sweep(gcAge time.Duration) {
	gcBefore := m.now().Add(-gcAge).UnixMilli()
	for k, e := range m.data {
		if e.Tombstone && WallMillis(e.Version) < gcBefore {
			delete(m.data, k)
		}
	}
}

// liveKeys lists, sorted, the keys of a raw entry space that are live:
// the model's, or an engine's listing (rawState).
func liveKeys(data map[string]Entry) []string {
	var keys []string
	for k, e := range data {
		if !e.Tombstone {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestStoreProperty drives a randomized op sequence through the engine,
// at eight shards and at one, and the reference model in lock-step,
// comparing results after every op and full raw state at checkpoints.
// Covers tombstoned deletes with GC (swept whole or bounded),
// set-if-newer merge in stale, fresh, and tied flavors, and the
// whole-store listing. Some values are empty, so overwrites flip a
// record between a value, an empty value and a tombstone of one length
// — in place — and Counts is checked against the model after every op.
// Every value a Get or AppendLoad hands out is a copy, kept and checked
// again at the end: one that aliased its record would have been changed
// by a later write. The seed is logged so a failure replays.
func TestStoreProperty(t *testing.T) {
	seed := time.Now().UnixNano()
	for name, shards := range map[string]int{"sharded": 8, "flat": 1} {
		t.Run(name, func(t *testing.T) {
			t.Logf("seed %d", seed)
			rng := rand.New(rand.NewSource(seed))
			ft := newFakeTime()
			const gcAge = 10 * time.Minute
			eng := NewSharded(Options{Shards: shards, Now: ft.now, TombstoneGC: gcAge})
			m := &model{data: map[string]Entry{}, now: ft.now}

			key := func() string { return fmt.Sprintf("k-%d", rng.Intn(64)) }
			val := func() []byte {
				if rng.Intn(8) == 0 {
					return nil
				}
				return []byte(fmt.Sprintf("v-%d", rng.Intn(1_000_000)))
			}
			// held is every value a read handed out, with what it read then.
			type heldValue struct {
				op   int
				v    []byte
				want string
			}
			var held []heldValue

			const ops = 20_000
			for i := 0; i < ops; i++ {
				switch p := rng.Intn(100); {
				case p < 35: // Set
					k := key()
					v := val()
					ver := eng.Set(k, v)
					m.set(k, v, ver)
				case p < 55: // Get cross-check
					k := key()
					ge, gok := eng.Get(k)
					me, mok := m.get(k)
					if gok != mok || (gok && (string(ge.Value) != string(me.Value) || ge.Version != me.Version)) {
						t.Fatalf("op %d: Get(%q) engine=%+v,%v model=%+v,%v", i, k, ge, gok, me, mok)
					}
					held = append(held, heldValue{i, ge.Value, string(me.Value)})
				case p < 65: // Delete
					k := key()
					ver, _ := eng.Delete(k)
					m.del(k, ver)
				case p < 80: // Merge: stale, fresh, or tied
					k := key()
					e := Entry{Version: eng.Clock().Last()}
					switch rng.Intn(3) {
					case 0: // stale
						if d := uint64(rng.Intn(5_000) + 1); e.Version > d {
							e.Version -= d
						} else {
							e.Version = 1
						}
					case 1: // fresh
						e.Version += uint64(rng.Intn(5_000) + 1)
					case 2: // tie with whatever is resident, if anything
						if _, cur, ok := eng.AppendLoad(nil, k); ok {
							e.Version = cur.Version
						}
					}
					if rng.Intn(3) == 0 {
						e.Tombstone = true
					} else {
						e.Value = val()
					}
					_, applied := eng.Merge(k, e)
					if mApplied := m.merge(k, e); applied != mApplied {
						t.Fatalf("op %d: Merge(%q, v%d tomb=%v) engine applied=%v model=%v",
							i, k, e.Version, e.Tombstone, applied, mApplied)
					}
				case p < 85: // AppendLoad cross-check (raw view)
					k := key()
					_, ge, gok := eng.AppendLoad(nil, k)
					me, mok := m.data[k]
					if gok != mok || (gok && (ge.Version != me.Version || ge.Tombstone != me.Tombstone ||
						string(ge.Value) != string(me.Value))) {
						t.Fatalf("op %d: AppendLoad(%q) engine=%+v,%v model=%+v,%v", i, k, ge, gok, me, mok)
					}
					held = append(held, heldValue{i, ge.Value, string(me.Value)})
				case p < 90: // listing + Merkle digest cross-check
					got := liveKeys(rawState(eng))
					if want := liveKeys(m.data); !slices.Equal(got, want) { // nil and empty listings are the same listing
						t.Fatalf("op %d: live keys engine=%v model=%v", i, got, want)
					}
					d := eng.Digest()
					if want := digestOf(m.data, d.Buckets()); d.Root() != want.Root() {
						t.Fatalf("op %d: Digest root %016x, model %016x", i, d.Root(), want.Root())
					}
				case p < 95: // advance time: tombstones age
					ft.advance(time.Duration(1+rng.Intn(90)) * time.Second)
				default: // sweep both (sometimes bounded)
					limit := 0
					if rng.Intn(2) == 0 {
						limit = 1 + rng.Intn(32)
					}
					eng.Sweep(limit)
					if limit == 0 {
						m.sweep(gcAge)
					} else {
						// A bounded engine sweep removes a subset; resync the
						// model by sweeping both whole.
						eng.Sweep(0)
						m.sweep(gcAge)
					}
				}
				if live, tombs := eng.Counts(); live != len(liveKeys(m.data)) || live+tombs != len(m.data) {
					t.Fatalf("op %d: Counts() = %d live, %d tombstones; model %d live of %d",
						i, live, tombs, len(liveKeys(m.data)), len(m.data))
				}
			}
			for _, h := range held {
				if string(h.v) != h.want {
					t.Fatalf("a value read at op %d is now %q, want %q", h.op, h.v, h.want)
				}
			}

			// Final full-state comparison: raw entries, live keys, Len.
			raw := rawState(eng)
			if len(raw) != len(m.data) {
				t.Fatalf("raw entry count: engine %d model %d", len(raw), len(m.data))
			}
			for k, me := range m.data {
				ge, ok := raw[k]
				if !ok || ge.Version != me.Version || ge.Tombstone != me.Tombstone ||
					string(ge.Value) != string(me.Value) {
					t.Fatalf("raw entry %q: engine %+v model %+v", k, ge, me)
				}
			}
			got := liveKeys(raw)
			if want := liveKeys(m.data); !slices.Equal(got, want) { // nil and empty listings are the same listing
				t.Fatalf("final live keys: engine %v model %v", got, want)
			}
			live := 0
			for _, e := range m.data {
				if !e.Tombstone {
					live++
				}
			}
			if eng.Len() != live {
				t.Fatalf("final Len: engine %d model %d", eng.Len(), live)
			}
		})
	}
}
