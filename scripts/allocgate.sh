#!/usr/bin/env sh
# Fails when a hot path allocates more per op than it is allowed to.
# Timings on a shared runner are noise; allocs/op at a fixed iteration
# count is not, so this is the part of the perf ledger CI can gate on.
# Thirteen checks; the ceilings below are the one place the numbers live:
#
#   - the six coordinator paths (root benchmarks, rf=2) against
#     recorded ceilings, measured over ten runs of this script (go1.24).
#     A replicated write costs each replica at most 1 allocation, the
#     engine's record, and none when it overwrites a record of the same
#     length (the table rewrites it in place, as every read copies its
#     value out): every write travels in a csnet.Batch, whose frames take
#     their Pending and reply body from the transport's free lists and
#     hand them back once the reply is decoded, and the server reads
#     each key where it arrived. A Get is 1, the value it returns: its
#     GETV rides a csnet.Batch too, which clones the value out of the
#     reply and hands the body back. SetGet is a Set and a Get plus the
#     benchmark's own key (Sprintf and its boxed argument): 5. Its Set's
#     two records are new keys' records: at 2000 iterations i&4095
#     never comes back to a key. MSet100 rewrites its
#     100 keys in place on both replicas, as nothing reads them: 2 (the
#     mutation and outcome lists), every one of four runs; 5 while each
#     server batch frame allocated its commit, which now lives in the
#     serving worker; 205 or 206 while every write allocated its record.
#     Pipelined is SetGet from 64 goroutines: 5 at GOMAXPROCS 1 and 2,
#     6 at 4 and 8, every run; ceiling 6. It read 6 to 11 by schedule
#     while a cold csnet.Peer let every caller that found no connection
#     dial its own and closed all but the first: one connection and its
#     server side a racing caller, per backend, each run. Get and
#     MGet100 run one read path (dist's fetch; Get is its one-key
#     case), so MGet100 is Get's bill per key plus its fetched list and
#     result map (5): 105, every one of four runs (108 while each
#     backend frame cost the server a commit). Its bytes/op are gated too, at 16384
#     over a measured 13.2k-13.4k, so the per-key read state cannot
#     quietly grow back (at 56k a Batch per key, at 40k a Call per
#     key). It runs after Pipelined in the same process, whose small
#     buffers sit in the transport free list's small class, where
#     MGet100's 64 KiB frames never look (15.0k-26.0k while one list
#     made each such frame pop, drop and replace a small buffer).
#     Get is gated alone: a stray allocation on that path fails
#     ClusterGet instead of hiding in SetGet's write. GetCached is Get
#     with the read cache on, every Get a hit: 1, the copy a hit hands
#     out (0 while a hit returned the cache's own slice). Lower one when a
#     change brings its number down, never raise one without saying why
#     in CHANGES.md;
#   - one csnet SETV round trip at a rising version (internal/csnet):
#     through the public Call, serial and pipelined — the CI twins of
#     the ladder's csnet.allocs_per_rtt, which times the same op: the
#     call and the reply body, 2, and the pipelined one's record too, 3,
#     as its 4096 keys are each new to the engine — and as a one-entry
#     Batch, a replica's share of a coordinator's Set: nothing, the
#     record rewritten in place;
#   - one frame served in process, decode to encoded reply
#     (internal/csnet), with a worker's scratch: a GETV allocates
#     nothing — its key aliases the frame, its value copied into the
#     worker's scratch — and a SETV over its resident key nothing
#     either, its record rewritten in place; nor does a GETV then a
#     same-length SETV of one key, as the GETV copies its value out
#     (1, the SETV's new record, while a GETV aliased the record).
#     Nothing on the server path copies a key out of a frame;
#   - the same frames under -fsync always (internal/csnet): a warm
#     worker serves a plain SETV and a 64-entry SETV batch over an
#     FsyncAlways engine whose WALFile.Sync is a no-op, so no disk is
#     timed. Each frame waits for the log once, through the deferred
#     engine view the worker keeps from frame to frame: 0 (2 while
#     each batch frame made its own view: the engine view and the
#     handler over it);
#   - a heal pass's frames served in process by a warm worker
#     (internal/csnet), each drawing a reply that fits the transport's
#     recycled buffers: an OpRangeV listing of ~38 KB and an OpBatch of
#     256 GETVs, 0 each — the listing is built in the worker's scratch
#     over the worker's bucket set, the batch's commit is the worker's,
#     and either reply frame comes from the free list and goes back to
#     it (a listing allocated its body, its bucket list and its bucket
#     set, and a batch its commit). Their bytes read 0 too, now that
#     the small buffers KVPipelined leaves sit in the free list's other
#     size class (1.6k and 2.5k B/op while one list held both);
#   - the node side of an anti-entropy pass, in bytes/op, at 100k keys
#     with every Merkle bucket dirty or listed: Digest() allocates the
#     tree it returns and two bucket sets (18 KiB; ceiling 64 KiB) and
#     never a copy of the keyspace, and one OpRangeV over every bucket
#     allocates its response body (3.0 MB) plus sizing slack — ceiling
#     1.25 x body.
#     The CI twins of TestDigestAllocatesPerBucketNotPerKey (store) and
#     TestRangeVAllocatesItsBody (csnet);
#   - a new key in the engine, in bytes/op at 100k keys of 9 + 128
#     bytes: its record (one 144-byte allocation holding key, value and
#     metadata) plus its share of the table index's growth in 17-byte
#     slots (a 16-byte rec and a tag byte) — 193 measured, 244 behind
#     a 32-byte map[string]rec slot, 322 when a key cost a 64-byte slot
#     and a separate value copy; ceiling 200. The CI twin of
#     TestTableBytesPerEntry;
#   - a cleaning pass over a warm 128-shard engine's whole image
#     (internal/store), 50k keys of 9 + 128 bytes in one ~7.8 MB
#     segment, every record live and copied to the head of the log, in
#     bytes/op: the two files it opens, ~400 in 8 allocations, and never
#     a reader or frame buffer of its own — the wal keeps one 64 KiB
#     buffered reader for every pass, which a reader a pass would add
#     whole, and holds the data directory open for its fsyncs; ceiling 8192
#     (a whole-engine checkpoint's, 2.7k-4.0k, when this gated those);
#   - a reopen of a 128-shard engine whose log is its image
#     (internal/store), 50k keys of 9 + 128 bytes in one segment, one
#     OpenSharded a op: each key's record, the engine, and one index a
#     shard sized from the entry count the newest segment's header
#     carries before any record streams in, 50725 to 50729 allocs/op
#     at GOMAXPROCS 1 to 8 (go1.24); ceiling 50800. 52021 while every
#     table doubled its way up from 8 slots, two allocations a
#     doubling, leaving the old slot arrays (~1.2 MB of the 9.9 MB a
#     reopen allocated then, 8.6 MB now) behind;
#   - a Set through a persistent engine (internal/store), 9 + 128
#     bytes over 100k resident keys: no allocation, each record
#     rewritten in place (1, the record, while every write allocated
#     one), and 156 bytes of log (log-B/op, read from store.wal.append_bytes) —
#     a 4-byte CRC, the 8-byte version and the table's own 144-byte
#     record (7 header + 137 payload). The CI twin of the benchmark's
#     store.wal_bytes_per_set (3 replicas x 156 = 468) and of
#     TestWALBytesPerRecord: a field added to the frame fails here;
#   - the coordinator side of a heal pass (internal/dist): 256 of 4096
#     keys purged from one replica of three, then one Rebalance, with
#     the in-process backends' side counted too. Its repair reads ride
#     one csnet.Batch burst per source, like every other data op, so a
#     read costs its value and its share of the frame: 4893 to 4897
#     allocs/op over six runs at GOMAXPROCS 1 to 8 (go1.24, 2 vCPUs),
#     as map growth and frame splits follow the schedule; ceiling 4905.
#     4952 on the same host while each listing allocated its body,
#     bucket list and bucket set and each batch frame its commit
#     (ceiling 5010); a Call per read, as before, is 5244;
#   - the routing rebuild (internal/dist): one MarkDown and one MarkUp
#     republish, no network, on 5 backends x 1024 buckets at rf 3. Each
#     builds one route — its down set and owners table, a row per
#     bucket walked out of the fixed ring into one backing array — 8
#     allocs/op; ceiling 8. 2054 while each row was an allocation of
#     its own, and 2119 while the ring itself was mutable and each flip
#     filtered its virtual nodes out or rehashed and re-sorted them back
#     in;
#   - the E29/E30 pairs against each other: a SETV server round trip
#     with metrics on, or with a trace recorder wired in but the request
#     unsampled, may not allocate more than the same round trip without.
#
# Usage: scripts/allocgate.sh
set -eu
cd "$(dirname "$0")/.."

out=$(go test -run '^$' -bench 'ClusterGet$|ClusterGetCached$|ClusterSetGet$|ClusterPipelined$|ClusterMSet100$|ClusterMGet100$|ServerOp' -benchtime 2000x .
	go test -run '^$' -bench 'KVRoundTrip$|KVPipelined$|KVBatch$|ServeFrameGetV$|ServeFrameSetV$|ServeFrameSetVAlways$|ServeFrameGetVSetV$|ServeFrameRangeV$|ServeFrameGetVBurst$' -benchtime 2000x ./internal/csnet/
	go test -run '^$' -bench 'DigestAllDirty$' -benchtime 10x ./internal/store/
	go test -run '^$' -bench 'MergeNewKey$' -benchtime 100000x ./internal/store/
	go test -run '^$' -bench 'WALSet$' -benchtime 200000x ./internal/store/
	go test -run '^$' -bench 'CleanPass$|Reopen$' -benchtime 10x ./internal/store/
	go test -run '^$' -bench 'RangeVAllBuckets$' -benchtime 10x ./internal/csnet/
	go test -run '^$' -bench 'RebalanceHeal256$|Route$' -benchtime 50x ./internal/dist/)
printf '%s\n' "$out"

printf '%s\n' "$out" | awk '
BEGIN {
	max["BenchmarkClusterGet"] = 1 # the value
	max["BenchmarkClusterGetCached"] = 1 # the value, copied out of the cache
	max["BenchmarkClusterSetGet"] = 5
	max["BenchmarkClusterPipelined"] = 6 # 5 at GOMAXPROCS 1-2, 6 at 4-8
	max["BenchmarkClusterMSet100"] = 2 # rewritten in place, see above
	max["BenchmarkClusterMGet100"] = 105
	maxBytes["BenchmarkClusterMGet100"] = 16384
	max["BenchmarkKVRoundTrip"] = 2 # the call, the reply body
	max["BenchmarkKVPipelined"] = 3 # and the record of each new key
	max["BenchmarkKVBatch"] = 0 # the record rewritten in place
	max["BenchmarkServeFrameGetV"] = 0 # a node serves a Get without allocating
	max["BenchmarkServeFrameSetV"] = 0 # the record rewritten in place
	max["BenchmarkServeFrameSetVAlways"] = 0 # the worker keeps its engine view
	max["BenchmarkServeFrameGetVSetV"] = 0 # the GETV copies its value out
	max["BenchmarkServeFrameRangeV"] = 0 # a listing that fits, from a warm worker
	max["BenchmarkServeFrameGetVBurst"] = 0 # a read burst whose reply fits
	max["BenchmarkWALSet"] = 0         # the record rewritten in place
	maxLog["BenchmarkWALSet"] = 156    # 4 CRC + 8 version + 7 header + 137
	max["BenchmarkRebalanceHeal256"] = 4905 # 4893-4897, see above
	max["BenchmarkRoute"] = 8 # one backing array for the rows, see above
	maxBytes["BenchmarkDigestAllDirty"] = 65536
	maxBytes["BenchmarkMergeNewKey"] = 200
	maxBytes["BenchmarkCleanPass"] = 8192 # one reader kept, see above
	max["BenchmarkReopen"] = 50800 # tables sized once, see above
	maxBytes["BenchmarkRangeVAllBuckets"] = 3750000
	base["BenchmarkServerOpInstrumented"] = "BenchmarkServerOpBaseline"
	base["BenchmarkTracedServerOpEnabled"] = "BenchmarkTracedServerOpBaseline"
}
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)         # strip the GOMAXPROCS suffix
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "allocs/op") allocs[name] = $i + 0
		if ($(i + 1) == "B/op") bytes[name] = $i + 0
		if ($(i + 1) == "log-B/op") logBytes[name] = $i + 0
	}
}
END {
	for (name in max) {
		if (!(name in allocs)) { printf "%s did not run\n", name; bad = 1 }
		else if (allocs[name] > max[name]) {
			printf "%s: %d allocs/op exceeds the ceiling of %d\n", name, allocs[name], max[name]
			bad = 1
		}
	}
	for (name in maxBytes) {
		if (!(name in bytes)) { printf "%s did not run\n", name; bad = 1 }
		else if (bytes[name] > maxBytes[name]) {
			printf "%s: %d B/op exceeds the ceiling of %d\n", name, bytes[name], maxBytes[name]
			bad = 1
		}
	}
	for (name in maxLog) {
		if (!(name in logBytes)) { printf "%s did not run\n", name; bad = 1 }
		else if (logBytes[name] > maxLog[name]) {
			printf "%s: %d log-B/op exceeds the ceiling of %d\n", name, logBytes[name], maxLog[name]
			bad = 1
		}
	}
	for (name in base) {
		if (!(name in allocs) || !(base[name] in allocs)) { printf "%s or %s did not run\n", name, base[name]; bad = 1 }
		else if (allocs[name] > allocs[base[name]]) {
			printf "%s: %d allocs/op, but %s does it in %d\n", name, allocs[name], base[name], allocs[base[name]]
			bad = 1
		}
	}
	exit bad
}
'
