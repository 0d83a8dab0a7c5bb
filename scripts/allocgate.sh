#!/usr/bin/env sh
# Fails when the coordinator's hot paths allocate more per op than their
# recorded ceilings. Timings on a shared runner are noise; allocs/op at
# a fixed iteration count is not, so this is the part of the perf
# ledger CI can gate on (ROADMAP item 1). The ceilings are the values
# measured before the write paths were collapsed onto one fan-out core
# (go1.24): lower one when a change brings its number down, never raise
# one without saying why in CHANGES.md.
#
# Usage: scripts/allocgate.sh
set -eu
cd "$(dirname "$0")/.."

out=$(go test -run '^$' -bench 'ClusterSetGet$|ClusterPipelined$|ClusterMSet100$|ClusterMGet100$' -benchtime 2000x .)
printf '%s\n' "$out"

printf '%s\n' "$out" | awk '
BEGIN {
	max["BenchmarkClusterSetGet"] = 35
	max["BenchmarkClusterPipelined"] = 38
	max["BenchmarkClusterMSet100"] = 2310
	max["BenchmarkClusterMGet100"] = 1009
}
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)         # strip the GOMAXPROCS suffix
	for (i = 2; i < NF; i++) if ($(i + 1) == "allocs/op") allocs = $i
	seen[name] = 1
	if (allocs + 0 > max[name]) {
		printf "%s: %d allocs/op exceeds the ceiling of %d\n", name, allocs, max[name]
		bad = 1
	}
}
END {
	for (name in max) if (!seen[name]) { printf "%s did not run\n", name; bad = 1 }
	exit bad
}
'
