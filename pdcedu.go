// Package pdcedu reproduces "ABET Accreditation: A Way Forward for PDC
// Education" (Aly, Harmanani, Raj, Sharafeddine; EduPar/IPDPS-W 2021,
// arXiv:2105.01707) as an executable system: the paper's curriculum
// analysis (ABET CAC criteria checking, the 20-program survey behind
// Fig. 2 and Fig. 3, and Tables I-III) plus the full set of PDC teaching
// substrates its case-study courses rely on, implemented in the internal
// packages (conc, par, taskgraph, race, sched, arch, simd, simt, mpi,
// store, csnet, dist, member, obs, txn, perf).
//
// This package is the stable facade over the curriculum core. The
// substrates are exercised through the example programs under examples/
// and the command-line tools under cmd/.
//
// The store substrate is the data layer everything key-value stands
// on: one sharded storage engine that puts each slice of the key
// space behind its own lock, stamps every entry
// with a hybrid-logical-clock version, tombstones deletes (with
// bounded GC), resolves concurrent writes by last-writer-wins merge,
// and maintains an incremental Merkle digest
// over its entries — the csnet KV handler, the dist cluster's
// backends, and the txn transactional store all share it (see the
// README "Storage engine" section). The engine is durable on demand:
// opened on a directory it appends every write to one CRC-framed
// write-ahead log shared by all shards (one group-commit fsync for the
// whole node under a configurable always/interval/never policy) and
// rotates it into segments, cleaning the oldest one at a time — its
// live records re-appended, the segment deleted — so the log stays
// near twice the live data and a restarted node replays it locally —
// truncating any torn crash tail —
// and then catches up on only the divergence window through the
// Merkle anti-entropy exchange instead of re-streaming its keyspace
// (see cmd/distnode's -data-dir and the README "Durability" section). The dist substrate is the
// service-shaped layer: a dist.Cluster that places one key space on a
// consistent-hash ring with virtual nodes and shards it across
// several csnet backend servers with synchronous coordinator-versioned
// replication, version-aware read-repair, and batched MSet/MGet/MDel —
// all carried by csnet's pipelined multiplexed transport, which keeps
// N requests in flight per connection (see the README "Performance"
// section). The course lab's load-balancing strategies with their
// deterministic simulator, its sequential- and eventual-consistency
// replication and its RPC middleware over TCP live in examples/distkv,
// beside the program that teaches them. The member substrate makes that
// cluster self-healing: SWIM-style gossip membership with indirect
// probing and incarnation-guarded suspicion drives placement — dead
// backends are marked down (writes degrade to a quorum of live replicas
// with hinted handoff), recovered ones are readmitted and converged by
// Merkle anti-entropy — replicas compare hash-tree digests and
// exchange only the diverged buckets, so a steady-state converge
// costs one root hash per backend and a stale replay can never win
// (see cmd/distnode and the README "Fault tolerance" and
// "Anti-entropy" sections). The obs substrate watches all of it:
// striped zero-allocation counters, padded gauges, and mergeable
// log-bucketed latency histograms instrument every layer, a node
// answers the OpStats wire op with its encoded registry snapshot,
// dist.Cluster.ClusterStats merges those snapshots cluster-wide, and
// distnode's -metrics-addr serves /metrics, /debug/vars, and pprof
// (see the README "Observability" section). The trace substrate
// follows individual requests through all of that: a coordinator
// stamps sampled operations with a trace context that rides the
// versioned frame trailer into every backend, hint replay, and
// anti-entropy stream; each node records its spans in a lock-free
// ring with tail promotion pinning any trace that crossed the slow-op
// threshold; the OpTraces wire op serves any node's spans, which
// trace.Assemble joins into cross-node span trees, and distnode's
// /debug/traces renders its own as text waterfalls (see the README
// "Tracing" section). The load layer closes the loop between serving
// and measuring: the coordinator
// carries a bounded hot-key read cache (version-invalidated by every
// write path it sees), the csnet server
// sheds excess load with a typed BUSY status once its queue depth or
// in-flight budget is exceeded (clients retry with jittered backoff),
// and cmd/distload offers the coordinator a fixed open-loop arrival
// schedule with zipfian or uniform keys, reporting
// coordinated-omission-safe p50/p99/p999 latencies (see the README
// "Load testing & backpressure" section).
package pdcedu

import (
	"io"

	"pdcedu/internal/curriculum"
)

// Re-exported core types.
type (
	// Program is a degree program under audit.
	Program = curriculum.Program
	// Course is one course of a program.
	Course = curriculum.Course
	// Topic is a PDC knowledge component (a Table I row).
	Topic = curriculum.Topic
	// Area is a course subject area.
	Area = curriculum.Area
	// Report is an ABET audit outcome.
	Report = curriculum.Report
	// Finding is one line of an audit report.
	Finding = curriculum.Finding
	// Survey is a set of programs under analysis.
	Survey = curriculum.Survey
	// TopicWeight is one bar of the Fig. 2 analysis.
	TopicWeight = curriculum.TopicWeight
	// AreaShare is one slice of the Fig. 3 analysis.
	AreaShare = curriculum.AreaShare
	// KnowledgeArea is a row of Table II or III.
	KnowledgeArea = curriculum.KnowledgeArea
)

// CheckProgram audits a program against the ABET CAC CS Program Criteria
// curriculum requirements (2018 revision), including the PDC exposure
// requirement.
func CheckProgram(p Program) (Report, error) { return curriculum.CheckProgram(p) }

// BuildSurvey returns the 20-program corpus whose aggregates reproduce
// the paper's survey (Section III).
func BuildSurvey() Survey { return curriculum.BuildSurvey() }

// CanonicalMapping returns Table I: PDC concepts to typical courses.
func CanonicalMapping() map[Topic][]Area { return curriculum.CanonicalMapping() }

// RenderTableI formats Table I.
func RenderTableI() string { return curriculum.RenderTableI() }

// RenderFig2 formats the Fig. 2 topic-frequency analysis of a survey.
func RenderFig2(s Survey) string { return curriculum.RenderFig2(s) }

// RenderFig3 formats the Fig. 3 course-share analysis of a survey.
func RenderFig3(s Survey) string { return curriculum.RenderFig3(s) }

// RenderTableII formats Table II (CE2016 knowledge areas).
func RenderTableII() string { return curriculum.RenderTableII() }

// RenderTableIII formats Table III (SE2014 knowledge areas).
func RenderTableIII() string { return curriculum.RenderTableIII() }

// RenderReport formats an audit report.
func RenderReport(r Report) string { return curriculum.RenderReport(r) }

// LoadProgramFile reads a program definition from JSON.
func LoadProgramFile(path string) (Program, error) { return curriculum.LoadProgramFile(path) }

// SaveProgramFile writes a program definition to JSON.
func SaveProgramFile(path string, p Program) error { return curriculum.SaveProgramFile(path, p) }

// EncodeProgram writes a program definition as JSON.
func EncodeProgram(w io.Writer, p Program) error { return curriculum.EncodeProgram(w, p) }

// CE2016 returns Table II's knowledge-area data.
func CE2016() []KnowledgeArea { return curriculum.CE2016() }

// SE2014 returns Table III's knowledge-area data.
func SE2014() []KnowledgeArea { return curriculum.SE2014() }

// CS2013PDC returns the CS2013 three-part PDC definition.
func CS2013PDC() []string { return curriculum.CS2013PDC() }

// CC2020Topics returns the CC2020 recommended PDC topics.
func CC2020Topics() []string { return curriculum.CC2020Topics() }
