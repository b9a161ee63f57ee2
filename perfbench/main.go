// Command perfbench is CLASH's benchmark: one command that boots the system
// inside this process, drives one workload for a fixed time, checks every
// output, and prints each metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 412345, "failed": 0, "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload publish-tcp --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists and what it stresses):
//
//	publish-tcp       Client.Publish of one packet per frame, 2 nodes, loopback TCP
//	fanout-batch-tcp  Client.PublishBatch of 64 objects, hundreds of CQs, pushed matches
//	split-merge-sim   sim.Run of the split-merge scenario at 500 nodes
//
// --trace 0 prints BENCHMARK.json's end_to_end metrics from an untraced run.
// --trace 1 prints its per_layer metrics: the run measures an untraced phase
// and then a traced phase (spans timed around the public overlay.Transport,
// Client, Node, core, cq and sim calls, a CPU profile and a goroutine
// sampler), replays its captured inputs through the layers, and writes the
// spans and every metric to the --results directory.
//
// The command exits non-zero when a correctness check fails or the run
// cannot complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricValue is one measured number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds every metric a run measured, declared in BENCHMARK.json or
// not; the final line reports the declared ones.
type metricSet map[string]metricValue

func (m metricSet) set(name string, v float64, unit string) { m[name] = metricValue{v, unit} }

// outcome is what a workload run reports back to main.
type outcome struct {
	attempted, failed int64
	// problems lists failed correctness checks; any entry fails the run.
	problems []string
	metrics  metricSet
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// runConfig carries the command-line settings into a workload.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	results  string
}

// artifact names a file under the results directory for this run.
func (c runConfig) artifact(suffix string) string {
	return filepath.Join(c.results, fmt.Sprintf("%s-seed%d-trace%d%s", c.workload, c.seed, btoi(c.traced), suffix))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"publish-tcp":      func(c runConfig) (*outcome, error) { return runTCP(c, publishTCP) },
	"fanout-batch-tcp": func(c runConfig) (*outcome, error) { return runTCP(c, fanoutBatchTCP) },
	"split-merge-sim":  runSim,
}

// benchSpec is the part of BENCHMARK.json the command reads: which metrics
// the final line must carry, with their units.
type benchSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: publish-tcp, fanout-batch-tcp or split-merge-sim")
		seed    = flag.Int64("seed", 1, "seed every input of the run is generated from")
		seconds = flag.Int("seconds", 30, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark description naming the metrics to report")
		results = flag.String("results", ".bench_build/results", "directory for the run's metrics and spans files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *spec, *results); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, specPath, results string) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return fmt.Errorf("read benchmark description: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("parse %s: %w", specPath, err)
	}
	if err := os.MkdirAll(results, 0o755); err != nil {
		return err
	}
	cfg := runConfig{workload: name, seed: seed, window: time.Duration(seconds) * time.Second, traced: trace == 1, results: results}

	out, err := wl(cfg)
	if err != nil {
		return err
	}
	out.metrics.set("process.num_cpu", float64(runtime.NumCPU()), "count")
	out.metrics.set("process.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")

	declared := spec.EndToEnd
	if cfg.traced {
		declared = spec.PerLayer
	}
	report := make(metricSet, len(declared))
	for _, d := range declared {
		v, ok := out.metrics[d.Name]
		switch {
		case !ok && !cfg.traced:
			return fmt.Errorf("workload %s did not measure end-to-end metric %s", name, d.Name)
		case !ok:
			// A layer this workload does not exercise did no work.
			v = metricValue{0, d.Unit}
		case v.Unit != d.Unit:
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", d.Name, v.Unit, d.Unit)
		}
		report[d.Name] = v
	}

	printMetrics(out.metrics)
	fmt.Printf("num_cpu=%d GOMAXPROCS=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, p := range out.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	if err := writeJSON(cfg.artifact("-metrics.json"), map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"attempted": out.attempted, "failed": out.failed, "problems": out.problems, "metrics": out.metrics,
	}); err != nil {
		return err
	}

	final, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{len(out.problems) == 0, out.attempted, out.failed, report})
	if err != nil {
		return err
	}
	fmt.Println(string(final))
	if len(out.problems) > 0 {
		return fmt.Errorf("%d correctness check(s) failed", len(out.problems))
	}
	return nil
}

// printMetrics prints every measured metric, one "name value unit" line each.
func printMetrics(m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-44s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
