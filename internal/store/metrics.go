package store

import "pdcedu/internal/obs"

// Storage metric names (process-wide, summed over every engine in the
// process — per-engine figures stay on the engines' own accessors like
// MerkleRebuilds, Counts, and Recovery):
//
//	store.sweep.expired          counter: entries expired by sweeps
//	store.sweep.purged           counter: tombstones GC'd by sweeps
//	store.merkle.leaf_rebuilds   counter: dirty Merkle leaves rehashed
//	store.wal.appends            counter: records appended to the log
//	store.wal.append_bytes       counter: bytes those appends wrote
//	store.wal.fsyncs             counter: fsyncs issued (group commits,
//	                             interval flushes, rotations)
//	store.wal.errors             counter: sticky log failures (each one
//	                             poisons an engine)
//	store.wal.snapshots          counter: engine checkpoints written
//	store.wal.recovered_entries  counter: checkpoint entries loaded at open
//	store.wal.recovered_records  counter: log records replayed at open
//	store.wal.torn_bytes         counter: log bytes dropped at torn or
//	                             corrupt tails during recovery
//	store.wal.fsync_ns           histogram: fsync latency
//	store.wal.snapshot_ns        histogram: rotation + checkpoint latency
//	store.wal.recovery_ns        histogram: whole-engine reload latency
//
// The live entries / tombstones gauges are deliberately not here: a
// process can host several engines, so cmd/distnode registers
// store.entries and store.tombstones as func gauges over its own
// engine's Counts.
var (
	sweepExpired  = obs.Default().Counter("store.sweep.expired")
	sweepPurged   = obs.Default().Counter("store.sweep.purged")
	merkleRebuilt = obs.Default().Counter("store.merkle.leaf_rebuilds")

	walAppends          = obs.Default().Counter("store.wal.appends")
	walAppendBytes      = obs.Default().Counter("store.wal.append_bytes")
	walFsyncs           = obs.Default().Counter("store.wal.fsyncs")
	walErrors           = obs.Default().Counter("store.wal.errors")
	walSnapshots        = obs.Default().Counter("store.wal.snapshots")
	walRecoveredEntries = obs.Default().Counter("store.wal.recovered_entries")
	walRecoveredRecords = obs.Default().Counter("store.wal.recovered_records")
	walTornBytes        = obs.Default().Counter("store.wal.torn_bytes")

	walFsyncLatency    = obs.Default().Histogram("store.wal.fsync_ns")
	walSnapshotLatency = obs.Default().Histogram("store.wal.snapshot_ns")
	walRecoveryLatency = obs.Default().Histogram("store.wal.recovery_ns")
)
