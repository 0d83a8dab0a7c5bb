package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"time"
)

// Calibration floors: no bound is set tighter than these however
// quiet the A/A runs were, because six runs cannot see all the noise
// a later day will bring.
var boundFloor = map[string]float64{"allocs_per_op": 0.02, "disk_write_amp": 0.03}

const (
	defaultFloor = 0.05
	// maxBound is the loosest bound BENCHMARK.json may carry.
	maxBound = 0.25
	// demoteAbove is the spread past which a metric should not ship as
	// end-to-end.
	demoteAbove = 0.10
)

// calibrate is the A/A mode: it runs every workload n times on the
// commit as it stands, prints for every workload and every end-to-end
// and demoted metric the spread of the n values, and writes each
// end-to-end metric's bound into BENCHMARK.json as max(floor, 2 x its
// widest spread), capped at maxBound.
func calibrate(r *rig, spec *benchmarkFile, n int, seed int64, seconds int, build time.Duration) error {
	values := map[string]map[string][]float64{} // workload -> metric -> one value per run
	table := slices.Concat(endToEnd, demoted)
	for i := 0; i < n; i++ {
		for _, wl := range shipped() {
			o, err := runWorkload(r, wl, seed+int64(i), seconds, false, build)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", wl.name, i, err)
			}
			if o.Failed > 0 {
				return fmt.Errorf("%s run %d: %d failed ops: %s", wl.name, i, o.Failed, o.FirstErr)
			}
			if values[wl.name] == nil {
				values[wl.name] = map[string][]float64{}
			}
			for _, s := range table {
				values[wl.name][s.Name] = append(values[wl.name][s.Name], o.Metrics[s.Name].V)
			}
			fmt.Fprintf(os.Stderr, "bench: A/A run %d/%d %s done\n", i+1, n, wl.name)
		}
	}
	worst := map[string]float64{}
	fmt.Printf("| workload | metric | median | min | max | (max-min)/median | IQR/median |\n|---|---|---|---|---|---|---|\n")
	for _, wl := range shipped() {
		for _, s := range table {
			vs := values[wl.name][s.Name]
			sum := summarize(vs)
			lo, hi := slices.Min(vs), slices.Max(vs)
			spread := ratio(hi-lo, math.Abs(sum.Median))
			worst[s.Name] = max(worst[s.Name], spread)
			fmt.Printf("| %s | %s | %.4g | %.4g | %.4g | %.1f%% | %.1f%% |\n",
				wl.name, s.Name, sum.Median, lo, hi, 100*spread, 100*sum.spread())
		}
	}
	fmt.Printf("\n| metric | widest spread | bound |\n|---|---|---|\n")
	for i := range spec.EndToEnd {
		e := &spec.EndToEnd[i]
		floor, ok := boundFloor[e.Name]
		if !ok {
			floor = defaultFloor
		}
		e.Bound = math.Ceil(100*min(max(floor, 2*worst[e.Name]), maxBound)) / 100
		note := ""
		switch {
		case e.Name == "setup_s":
			// One sample per run, and every later change is allowed to
			// trade a little set-up for steady state: the loosest bound.
			e.Bound = maxBound
		case worst[e.Name] > demoteAbove:
			note = " — spread above 10 %: lengthen its measurement or move it to `demoted` in spec.go"
		}
		fmt.Printf("| %s | %.1f%% | %.0f%%%s |\n", e.Name, 100*worst[e.Name], 100*e.Bound, note)
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(benchmarkPath, append(b, '\n'), 0o644)
}
