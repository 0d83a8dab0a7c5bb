package store

import "pdcedu/internal/obs"

// Storage metric names (process-wide, summed over every engine in the
// process — per-engine figures stay on the engines' own accessors like
// Counts and Recovery):
//
//	store.sweep.purged           counter: tombstones GC'd by sweeps
//	store.merkle.leaf_rebuilds   counter: dirty Merkle leaves rehashed
//	store.table.rewrites         counter: writes that rewrote their
//	                             key's resident record in place instead
//	                             of allocating a new one (table.go);
//	                             served writes only, not replay's
//	store.wal.appends            counter: records appended to the log,
//	                             the cleaner's copies included
//	store.wal.append_bytes       counter: bytes those appends wrote
//	                             (156 for a 9 + 128-byte Set; wal.go)
//	store.wal.fsyncs             counter: fsyncs issued (group commits,
//	                             interval flushes, rotations, passes)
//	store.wal.errors             counter: sticky log failures (each one
//	                             poisons an engine)
//	store.wal.snapshots          counter: cleaning passes, each one
//	                             sealed segment rewritten and deleted
//	store.wal.snapshot_bytes     counter: bytes those passes re-appended,
//	                             live records copied to the head of the
//	                             log (counted in append_bytes too);
//	                             ÷ (append_bytes − snapshot_bytes) is
//	                             what cleaning adds to the log's own
//	                             write amplification (≤ 1; about a
//	                             quarter under uniform overwrites)
//	store.wal.recovered_records  counter: log records replayed at open
//	store.wal.torn_bytes         counter: log bytes dropped at torn or
//	                             corrupt tails during recovery
//	store.wal.flush_records      histogram: records per write-out of
//	                             the log buffer — the group-commit batch
//	                             (sums to store.wal.appends)
//	store.wal.fsync_ns           histogram: fsync latency
//	store.wal.snapshot_ns        histogram: cleaning pass latency, from
//	                             reading the segment to deleting it
//	store.wal.recovery_ns        histogram: whole-engine reload latency
//
// The per-engine levels are deliberately not here: a process can host
// several engines, so cmd/distnode registers them as func gauges over
// its own engine —
//
//	store.entries, store.tombstones   Counts()
//	store.wal.log_bytes               Backlog(): bytes of log on disk
//	                                  (what a restart would replay)
//	store.wal.checkpoint_at           Backlog(): log_bytes at which the
//	                                  cleaner runs, max(snapshot-every ×
//	                                  shards, twice the live image)
var (
	sweepPurged   = obs.Default().Counter("store.sweep.purged")
	merkleRebuilt = obs.Default().Counter("store.merkle.leaf_rebuilds")
	tableRewrites = obs.Default().Counter("store.table.rewrites")

	walAppends          = obs.Default().Counter("store.wal.appends")
	walAppendBytes      = obs.Default().Counter("store.wal.append_bytes")
	walFsyncs           = obs.Default().Counter("store.wal.fsyncs")
	walErrors           = obs.Default().Counter("store.wal.errors")
	walSnapshots        = obs.Default().Counter("store.wal.snapshots")
	walSnapshotBytes    = obs.Default().Counter("store.wal.snapshot_bytes")
	walRecoveredRecords = obs.Default().Counter("store.wal.recovered_records")
	walTornBytes        = obs.Default().Counter("store.wal.torn_bytes")

	walFlushRecords    = obs.Default().Histogram("store.wal.flush_records")
	walFsyncLatency    = obs.Default().Histogram("store.wal.fsync_ns")
	walSnapshotLatency = obs.Default().Histogram("store.wal.snapshot_ns")
	walRecoveryLatency = obs.Default().Histogram("store.wal.recovery_ns")
)
