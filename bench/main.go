// Command bench is the repository's benchmark: it drives the system
// as deployed — three distnode processes with durable data-dirs, one
// dist.Cluster coordinator at rf=3 — and prints every end-to-end and
// per-layer metric by name. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workloadName := flag.String("workload", "", "run one workload (default: every workload BENCHMARK.json lists)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same keys and ops")
	seconds := flag.Int("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
	traceMode := flag.Int("trace", 0, "0: tracing off, report end-to-end metrics; 1: ladder + traced windows, report per-layer metrics")
	traced := flag.Bool("traced", false, "same as -trace 1")
	ladderOnly := flag.Bool("ladder", false, "run only the in-process layer ladder")
	aa := flag.Int("aa", 0, "A/A calibration: run the whole benchmark this many times and write the bounds into BENCHMARK.json")
	flag.Parse()

	// One generator process sized for the machine, never more than 4
	// threads: the nodes need the other cores.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	spec, err := loadBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	wls := shipped()
	if *workloadName != "" {
		wl, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		wls = []workload{wl}
	}

	r, err := newRig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	failed := true
	defer func() { r.cleanup(failed) }()

	if *ladderOnly {
		m, err := runLadder(r.dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: ladder:", err)
			return 1
		}
		printMetrics(os.Stdout, "ladder", ladderMetrics, m, nil)
		failed = false
		return 0
	}
	build, err := r.build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *aa > 0 {
		if err := calibrate(r, spec, *aa, *seed, *seconds, build); err != nil {
			fmt.Fprintln(os.Stderr, "bench: calibrate:", err)
			return 1
		}
		failed = false
		return 0
	}

	withLayers := *traced || *traceMode == 1
	code := 0
	for _, wl := range wls {
		o, err := runOne(r, wl, *seed, *seconds, withLayers, build)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			return 1
		}
		report(os.Stdout, spec, o, withLayers)
		if o.Failed > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed; first: %s\n", wl.name, o.Failed, o.Attempted, o.FirstErr)
			code = 1
		}
	}
	failed = code != 0
	return code
}

// runOne runs a workload and, on a per-layer run, the ladder first:
// both share the run's --seconds, so a per-layer run costs what an
// end-to-end run costs.
func runOne(r *rig, wl workload, seed int64, seconds int, withLayers bool, build time.Duration) (*outcome, error) {
	var ladder map[string]value
	if withLayers {
		start := time.Now()
		var err error
		if ladder, err = runLadder(r.dir); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		seconds = max(seconds-int(time.Since(start).Round(time.Second).Seconds()), 4)
	}
	o, err := runWorkload(r, wl, seed, seconds, withLayers, build)
	if err != nil {
		return nil, err
	}
	for k, v := range ladder {
		o.Metrics[k] = v
	}
	return o, nil
}

// report prints the workload's table and, last, the one-line JSON
// result: end-to-end metrics on a plain run, per-layer on a traced one.
func report(w *os.File, spec *benchmarkFile, o *outcome, withLayers bool) {
	fmt.Fprintf(w, "\n== %s  seed=%d  attempted=%d  failed=%d\n", o.Workload, o.Seed, o.Attempted, o.Failed)
	printMetrics(w, "end-to-end", endToEnd, o.Metrics, spec.bounds())
	fmt.Fprintln(w, "-- windows (1 s each, in order)")
	for _, name := range []string{"ops_per_s", "cpu_us_per_op", "get_p50_us", "set_p50_us"} {
		fmt.Fprintf(w, "%-34s %.4g\n", name, o.Series[name])
	}
	specs := endToEnd
	if withLayers {
		specs = perLayer()
		printMetrics(w, "per-layer", specs, o.Metrics, nil)
	} else {
		printMetrics(w, "per-layer (no ladder, no spans: run with -traced for those)", slices.Concat(demoted, counterMetrics), o.Metrics, nil)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]jsonMetric{}}
	for _, s := range specs {
		line.Metrics[s.Name] = jsonMetric{o.Metrics[s.Name].V, s.Unit}
	}
	b, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Fprintf(w, "%s\n", b)
}

// printMetrics prints one table: name, value, unit, sample count,
// quartiles where the value is a median, and the bound where one is set.
func printMetrics(w *os.File, title string, specs []metricSpec, m map[string]value, bounds map[string]float64) {
	fmt.Fprintf(w, "-- %s\n", title)
	names := make([]string, 0, len(specs))
	units := map[string]string{}
	for _, s := range specs {
		names = append(names, s.Name)
		units[s.Name] = s.Unit
	}
	if bounds == nil {
		sort.Strings(names)
	}
	for _, name := range names {
		v, ok := m[name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-34s %14.4f %-6s n=%-9d", name, v.V, units[name], v.N)
		if v.HasQ {
			line += fmt.Sprintf(" q1=%.4f q3=%.4f", v.Q1, v.Q3)
		}
		if b, ok := bounds[name]; ok {
			line += fmt.Sprintf(" bound=%.0f%%", b*100)
		}
		fmt.Fprintln(w, line)
	}
}
