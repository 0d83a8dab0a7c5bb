// Package obs is the repo's dependency-free metrics substrate: the
// single place every layer — the csnet wire protocol, the dist
// coordinator, SWIM membership, the storage engines — reports what it
// is doing, and the single place an operator (or a remote coordinator,
// via the csnet OpStats op) asks.
//
// Three metric kinds ship, all built on plain atomics with a hard
// hot-path contract: an increment costs a handful of nanoseconds and
// zero allocations, enabled or disabled, so instrumentation can live
// on the hottest paths in the system without showing up in their
// benchmarks (bench E29 pins this).
//
//   - Counter: a monotonic count, striped across cache-line-padded
//     per-CPU-ish cells so concurrent writers on different cores do
//     not bounce one cache line (the false-sharing trap
//     internal/arch/falsesharing.go teaches). Value() folds the
//     stripes.
//   - Gauge: a point-in-time level — queue depth, entry count — with
//     Set/Add/SetMax. A gauge is one padded atomic, not striped:
//     last-writer-wins Set semantics do not distribute over stripes.
//   - Histogram: a log-bucketed latency/size distribution, HDR-style:
//     fixed power-of-two major buckets refined by 2^3 sub-buckets
//     (worst-case relative error 1/8 per recorded value), atomic
//     increments, and snapshots that merge associatively — what lets a
//     coordinator add up per-node histograms into cluster-wide
//     percentiles without ever shipping raw samples.
//
// A Registry names metrics ("csnet.server.op_latency.SETV") and
// produces point-in-time Snapshots that render as text (the /metrics
// page), encode to a compact binary frame (the OpStats wire body), and
// merge (dist.Cluster.ClusterStats). The process-global Default
// registry is where the built-in instrumentation registers itself.
//
// Metrics are created once — usually in a package init — and held by
// pointer at the call site, so the hot path never touches the registry
// map: recording is a load of the enabled flag plus one or a few
// atomic adds.
package obs

import "sync/atomic"

// enabled gates every mutator. Default on: the contract is that
// recording is too cheap to need turning off, and SetEnabled(false)
// exists chiefly so the root E29 pair, BenchmarkServerOpInstrumented
// against BenchmarkServerOpBaseline, has a true baseline for
// scripts/allocgate.sh to compare (and so an operator can prove
// instrumentation is free on their workload).
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns all metric recording on or off process-wide.
// Disabled metrics keep their accumulated values; they just stop
// moving. Timers started while enabled still record (the StartTimer
// zero-Time convention gates on the state at start).
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether metric recording is on. Instrumentation that
// must pay a real cost to produce a sample — a time.Now() pair around
// an operation — checks it first so the disabled path skips the clock
// reads too.
func Enabled() bool { return enabled.Load() }
