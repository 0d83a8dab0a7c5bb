package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"

	"pdcedu/internal/obs"
)

// registerRuntimeGauges puts the Go runtime's memory accounting in the
// node's registry as func gauges — read when a snapshot is taken, so
// they cost the data path nothing. Each with its formula:
//
//	runtime.heap_live_bytes  /gc/heap/live:bytes — heap the last GC
//	                         cycle marked reachable
//	runtime.heap_goal_bytes  /gc/heap/goal:bytes — heap size at which
//	                         the next cycle ends: live × (1 + GOGC/100)
//	                         plus stacks and globals, so ≈ 2 × live
//	runtime.heap_idle_bytes  /memory/classes/heap/free:bytes +
//	                         /memory/classes/heap/released:bytes —
//	                         spans holding no object, kept or handed
//	                         back (MemStats.HeapIdle): what a burst grew
//	                         the heap by and steady state does not use
//	runtime.heap_objects     /gc/heap/objects:objects — objects the
//	                         heap holds, live or not yet swept; the
//	                         engine keeps one per resident key
//	runtime.gc_cycles        /gc/cycles/total:gc-cycles
//	runtime.rss_hw_bytes     VmHWM of /proc/self/status × 1024 — the
//	                         peak resident set, which is what the
//	                         benchmark's rss_mb sums over the nodes
//	                         (0 where /proc is absent)
func registerRuntimeGauges(reg *obs.Registry) {
	sum := func(names ...string) func() int64 {
		return func() int64 {
			samples := make([]metrics.Sample, len(names))
			for i, name := range names {
				samples[i].Name = name
			}
			metrics.Read(samples)
			var total int64
			for _, s := range samples {
				if s.Value.Kind() == metrics.KindUint64 {
					total += int64(s.Value.Uint64())
				}
			}
			return total
		}
	}
	reg.Func("runtime.heap_live_bytes", sum("/gc/heap/live:bytes"))
	reg.Func("runtime.heap_goal_bytes", sum("/gc/heap/goal:bytes"))
	reg.Func("runtime.heap_idle_bytes", sum("/memory/classes/heap/free:bytes", "/memory/classes/heap/released:bytes"))
	reg.Func("runtime.heap_objects", sum("/gc/heap/objects:objects"))
	reg.Func("runtime.gc_cycles", sum("/gc/cycles/total:gc-cycles"))
	reg.Func("runtime.rss_hw_bytes", rssHighWater)
}

// rssHighWater reads the process's peak resident set from the kernel.
func rssHighWater() int64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_, rest, ok := bytes.Cut(status, []byte("VmHWM:"))
	if !ok {
		return 0
	}
	var kb int64
	if _, err := fmt.Sscanf(string(rest), "%d kB", &kb); err != nil {
		return 0
	}
	return kb << 10
}
