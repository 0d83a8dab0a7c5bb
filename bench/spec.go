package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// metricSpec is one metric's fixed description. BENCHMARK.json carries
// the same names, units and directions (plus the bounds, which only
// calibration writes); spec_test.go holds the two in agreement.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a later change is gated on: what a user of
// the cluster pays per op in memory, storage and allocations, and how
// long a cluster takes to come up. Every workload reports every one.
// None but setup_s is a time: see demoted.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"disk_write_amp", "ratio", "lower"},
	{"rss_mb", "MB", "lower"},
}

// demoted are what a user sees first — throughput, latency, CPU per
// op, restart and catch-up time — and every run measures and prints
// them. They gate nothing, because on this host identical code
// disagrees on every one of them by 15-25 % from run to run (README,
// Noise); they are reported with the per-layer metrics, and a change
// that claims to move one shows it with paired runs.
var demoted = []metricSpec{
	{"ops_per_s", "1/s", "higher"},
	{"get_p50_us", "us", "lower"},
	{"set_p50_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"recover_s", "s", "lower"},
	{"catchup_s", "s", "lower"},
}

// ladderMetrics are measured in-process, one layer at a time, by
// pushing the same 128-byte versioned Set/Get through each rung.
var ladderMetrics = []metricSpec{
	{"store.mem_set_ns", "ns", "lower"},
	{"store.mem_get_ns", "ns", "lower"},
	{"store.wal_set_ns", "ns", "lower"},
	{"store.wal_self_ns", "ns", "lower"},
	{"store.snapshot_ms_per_100k", "ms", "lower"},
	{"store.recover_ms_per_100k", "ms", "lower"},
	{"store.recover_allocs_per_key", "count", "lower"},
	{"store.digest_us", "us", "lower"},
	{"csnet.codec_ns", "ns", "lower"},
	{"csnet.handler_set_ns", "ns", "lower"},
	{"csnet.handler_get_ns", "ns", "lower"},
	{"csnet.rtt_serial_us", "us", "lower"},
	{"csnet.rtt_pipelined_us", "us", "lower"},
	{"csnet.allocs_per_rtt", "count", "lower"},
	{"csnet.wire_self_us", "us", "lower"},
	{"dist.pick_ns", "ns", "lower"},
	{"dist.rf1_set_us", "us", "lower"},
	{"dist.rf3_set_us", "us", "lower"},
	{"dist.rf3_get_us", "us", "lower"},
	{"dist.coord_self_us", "us", "lower"},
	{"dist.fanout_self_us", "us", "lower"},
	{"dist.cache_hit_get_ns", "ns", "lower"},
	{"dist.mset100_us_per_key", "us", "lower"},
	{"dist.mget100_us_per_key", "us", "lower"},
	{"dist.rebalance_steady_us", "us", "lower"},
	{"obs.counter_add_ns", "ns", "lower"},
	{"obs.hist_observe_ns", "ns", "lower"},
}

// counterMetrics are deltas of counters the program already exports
// (ClusterStats, /metrics, /proc) over a workload's measured phase.
var counterMetrics = []metricSpec{
	{"bench.build_s", "s", "lower"},
	{"member.join_converge_ms", "ms", "lower"},
	{"client.get_p99_us", "us", "lower"},
	{"client.set_p99_us", "us", "lower"},
	{"client.window_cv", "ratio", "lower"},
	{"client.cpu_us_per_op", "us", "lower"},
	{"node.cpu_us_per_op", "us", "lower"},
	{"node.sys_share", "ratio", "lower"},
	{"node.start_overhead_ms", "ms", "lower"},
	{"store.wal_bytes_per_set", "B", "lower"},
	{"store.fsyncs_per_s", "1/s", "lower"},
	{"store.fsync_busy_pct", "%", "lower"},
	{"store.snapshots", "count", "lower"},
	{"store.snapshot_busy_pct", "%", "lower"},
	{"store.recovery_ms", "ms", "lower"},
	{"store.recovered_records", "count", "lower"},
	{"csnet.bytes_in_per_op", "B", "lower"},
	{"csnet.bytes_out_per_op", "B", "lower"},
	{"csnet.queue_depth_hw", "count", "lower"},
	{"csnet.inflight_hw", "count", "lower"},
	{"csnet.mux_pending_hw", "count", "lower"},
	{"csnet.mux_timeouts", "count", "lower"},
	{"csnet.shed", "count", "lower"},
	{"dist.cache_hit_ratio", "ratio", "higher"},
	{"dist.cache_invalidations_per_set", "ratio", "lower"},
	{"dist.cache_evictions", "count", "lower"},
	{"dist.read_repairs", "count", "lower"},
	{"dist.partial_writes", "count", "lower"},
	{"dist.hints_queued", "count", "lower"},
	{"dist.hints_replayed", "count", "higher"},
	{"dist.ae_digest_frames", "count", "lower"},
	{"dist.ae_keys_streamed", "count", "lower"},
	{"dist.ae_pass_ms", "ms", "lower"},
}

// spanMetrics come from the traced half of a -trace 1 run: self times
// of the program's own wire-propagated spans.
var spanMetrics = []metricSpec{
	{"dist.op_self_us", "us", "lower"},
	{"dist.rpc_wire_us", "us", "lower"},
	{"csnet.server_queue_wait_us", "us", "lower"},
	{"csnet.server_self_us", "us", "lower"},
	{"store.engine_us", "us", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

func perLayer() []metricSpec {
	return slices.Concat(demoted, ladderMetrics, counterMetrics, spanMetrics)
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []metricEntry   `json:"end_to_end"`
	PerLayer   []layerEntry    `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricEntry struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const benchmarkPath = "BENCHMARK.json"

func loadBenchmarkFile() (*benchmarkFile, error) {
	b, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	return &f, nil
}

// bounds maps each end-to-end metric to the share of the parent's
// median it may worsen by, as BENCHMARK.json fixes it.
func (f *benchmarkFile) bounds() map[string]float64 {
	m := make(map[string]float64, len(f.EndToEnd))
	for _, e := range f.EndToEnd {
		m[e.Name] = e.Bound
	}
	return m
}
