// Command perfbench is the OFFRAMPS benchmark. Each workload runs in one
// process through the entry points a user's run goes through
// (Campaign.RunSuite, Campaign.Run, farm.Coordinator with farm.Worker),
// checks that the outputs are correct, and prints its metrics as one
// JSON object on the last line of standard output.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload tableii-cold --seed 1 --seconds 20 --trace 0
//	perfbench --workload farm-progressive --seed 3 --seconds 20 --trace 1
//
// --trace 0 measures the workload and prints the end-to-end metrics.
// --trace 1 is the traced layer run: it replays every workload's work
// serially, recording a span around each call into a layer's public
// functions, writes the spans to .bench_build/trace/, and prints the
// per-layer metrics. The two modes never share a process, so the
// end-to-end numbers are measured with tracing off. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workers is the campaign and farm pool size of every workload: the
// benchmark machine's core count when the workloads were chosen (a
// 2-core Xeon), fixed so results compare across machines.
const workers = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string // repository checkout root
	work     string // scratch directory for stores, sinks and journals
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 1, "base seed of every grid the workload runs")
		seconds = fs.Int("seconds", 20, "how long to measure, in seconds (0 = one pass)")
		trace   = fs.Int("trace", 0, "1 = traced layer run (per-layer metrics), 0 = end-to-end metrics")
		root    = fs.String("root", ".", "repository checkout root")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{workload: w.name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, root: *root}

	base := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(base, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg.work = work

	// A run that wedges (a farm sweep that never settles) must still end
	// well inside the caller's time limit.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.seconds+150*time.Second)
	defer cancel()

	env := stamp()
	var res result
	if cfg.trace {
		res, err = traceRun(ctx, cfg, env, stdout)
	} else {
		res, err = measure(ctx, cfg, w)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if !errors.As(err, new(*checkError)) {
			return 1
		}
		res.Correct = false
	}
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// checkError is a failed output check: the run still reports what it
// measured, with "correct": false, and exits non-zero.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "output check failed: " + e.msg }

func checkFailed(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// endToEndUnits names every end-to-end metric with its unit; the smoke
// test holds it to BENCHMARK.json.
var endToEndUnits = map[string]string{
	"scenarios_per_s":       "1/s",
	"cpu_ms_per_scenario":   "ms",
	"alloc_mb_per_scenario": "MB",
	"rss_peak_mb":           "MB",
	"success_frac":          "ratio",
	"detect_recall":         "ratio",
	"specificity":           "ratio",
	"setup_s":               "s",
}

// perLayerUnit gives a per-layer metric's unit from its name suffix.
func perLayerUnit(name string) string {
	for _, suf := range []struct{ suffix, unit string }{
		{"_ms_p50", "ms"}, {"_ms_p90", "ms"}, {"_us_p50", "us"}, {"_us_p90", "us"},
		{"_ms", "ms"}, {"_us", "us"}, {"_ns_per_tx", "ns"}, {"ns_per_event", "ns"},
		{"_kb", "KiB"}, {"_frac", "ratio"}, {"_eff", "ratio"}, {"reduction", "ratio"},
		{"sim_s", "s"}, {"speed_x", "x"},
	} {
		if strings.HasSuffix(name, suf.suffix) {
			return suf.unit
		}
	}
	return "count"
}

// metricsOf attaches units to a metric map, refusing missing values.
func metricsOf(values map[string]float64, unit func(string) string) (map[string]metric, error) {
	out := make(map[string]metric, len(values))
	var missing []string
	for name, v := range values {
		if v != v { // NaN: the spans or passes the metric needs never happened
			missing = append(missing, name)
			continue
		}
		out[name] = metric{Value: v, Unit: unit(name)}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return out, fmt.Errorf("no measurement for %s", strings.Join(missing, ", "))
	}
	return out, nil
}
