package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat reports CPU time
// in these ticks. Linux fixes it at 100 on every architecture Go
// supports, so it is a constant here rather than a sysconf call.
const clockTick = 100

// parseProcStat extracts utime and stime from the text of
// /proc/<pid>/stat. The comm field (2) is parenthesised and may itself
// contain spaces or parentheses, so fields are counted from the last
// ')': utime and stime are fields 14 and 15 of the line.
func parseProcStat(text string) (user, sys time.Duration, err error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("proc stat: no comm field in %q", text)
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state), so utime is f[11] and stime f[12].
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after comm, want at least 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return time.Duration(ut) * time.Second / clockTick, time.Duration(st) * time.Second / clockTick, nil
}

// parseKeyedInt finds "key: <int> [unit]" in /proc/<pid>/io or
// /proc/<pid>/status text and returns the integer.
func parseKeyedInt(text, key string) (int64, error) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc %s: %w", key, err)
		}
		return v, nil
	}
	return 0, fmt.Errorf("proc: no %q line", key)
}

// parseWriteBytes reads write_bytes — bytes this process caused to be
// sent to the storage layer — from /proc/<pid>/io text.
func parseWriteBytes(text string) (int64, error) { return parseKeyedInt(text, "write_bytes") }

// parseVmHWM reads the resident-set high-water mark, in bytes, from
// /proc/<pid>/status text (the kernel reports it in kB).
func parseVmHWM(text string) (int64, error) {
	kb, err := parseKeyedInt(text, "VmHWM")
	return kb << 10, err
}

// parseMallocs reads memstats.Mallocs — the cumulative count of heap
// objects allocated — out of a /debug/vars (expvar) JSON document.
func parseMallocs(doc []byte) (uint64, error) {
	var v struct {
		Memstats *struct {
			Mallocs uint64
		} `json:"memstats"`
	}
	if err := json.Unmarshal(doc, &v); err != nil {
		return 0, fmt.Errorf("debug/vars: %w", err)
	}
	if v.Memstats == nil {
		return 0, fmt.Errorf("debug/vars: no memstats")
	}
	return v.Memstats.Mallocs, nil
}
