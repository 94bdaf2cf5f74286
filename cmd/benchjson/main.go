// Command benchjson converts `go test -bench` output read from stdin into
// a JSON document on stdout, so CI can archive the perf trajectory of the
// key benchmarks across PRs (see scripts/bench.sh).
//
// Every benchmark becomes one object carrying the iteration count and
// every reported metric keyed by its unit (ns/op, allocs/op, B/op, and any
// custom b.ReportMetric units such as events/op or sim-s/op). When the
// input carries `-count N` repetitions of a benchmark, the repetitions
// are collapsed to one object holding the per-metric MEDIAN — robust to
// the one slow outlier a shared CI runner produces — and the report's
// top-level "runs" field records N.
//
// With -compare, benchjson instead diffs two archived reports:
//
//	benchjson -compare BENCH_3.json BENCH_ci.json
//	benchjson -compare -threshold 15 -metric ns/op -benches BenchmarkGoldenPrint old.json new.json
//
// printing per-benchmark deltas and a GitHub Actions ::warning::
// annotation for any tracked benchmark that regressed past the
// threshold. Comparison is advisory (exit 0 on regressions); only a
// benchmark missing from the new report fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	var (
		compare   = fs.Bool("compare", false, "compare two archived reports (old.json new.json) instead of converting")
		metric    = fs.String("metric", "ns/op", "metric `unit` to compare")
		benches   = fs.String("benches", "BenchmarkGoldenPrint,BenchmarkCampaign", "comma-separated benchmark `names` to compare")
		threshold = fs.Float64("threshold", 15, "annotate regressions beyond this `percent`")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var err error
	if *compare {
		if fs.NArg() != 2 {
			err = fmt.Errorf("-compare wants exactly two report files, got %d args", fs.NArg())
		} else {
			err = runCompare(fs.Arg(0), fs.Arg(1), *metric, *benches, *threshold, os.Stdout)
		}
	} else {
		err = run(os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// Result is one parsed benchmark line. Pkg is the package whose `pkg:`
// header preceded the line (absent in reports written before it was
// recorded per benchmark).
type Result struct {
	Name    string             `json:"name"`
	Pkg     string             `json:"pkg,omitempty"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the document benchjson emits. Runs is the `-count`
// repetition depth the medians were taken over (largest group seen;
// omitted in pre-aggregation reports). Pkg is set only when every
// benchmark comes from one package; each Result carries its own.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Runs       int      `json:"runs,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func run(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	rep := Report{}
	// Repetitions group by package and name: two packages may hold
	// benchmarks of the same name.
	type benchID struct{ pkg, name string }
	var order []benchID
	samples := make(map[benchID][]Result)
	pkgs := make(map[string]bool)
	for sc.Scan() {
		line := sc.Text()
		if r, ok := parseBenchLine(line); ok {
			r.Pkg = rep.Pkg // the latest pkg: header
			pkgs[r.Pkg] = true
			id := benchID{r.Pkg, r.Name}
			if _, seen := samples[id]; !seen {
				order = append(order, id)
			}
			samples[id] = append(samples[id], r)
			continue
		}
		parseHeader(&rep, line)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, id := range order {
		group := samples[id]
		rep.Benchmarks = append(rep.Benchmarks, aggregate(group))
		if len(group) > rep.Runs {
			rep.Runs = len(group)
		}
	}
	if len(pkgs) > 1 {
		rep.Pkg = ""
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	if rep.Runs == 1 {
		rep.Runs = 0 // single-shot input: keep the legacy document shape
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// aggregate collapses the `-count` repetitions of one benchmark into a
// single result: the median of each metric (over the repetitions that
// reported it) and the median iteration count.
func aggregate(group []Result) Result {
	if len(group) == 1 {
		return group[0]
	}
	out := Result{Name: group[0].Name, Pkg: group[0].Pkg, Metrics: make(map[string]float64)}
	iters := make([]float64, len(group))
	for i, r := range group {
		iters[i] = float64(r.Runs)
	}
	out.Runs = int64(median(iters))
	units := make(map[string][]float64)
	for _, r := range group {
		for unit, v := range r.Metrics {
			units[unit] = append(units[unit], v)
		}
	}
	for unit, vs := range units {
		out.Metrics[unit] = median(vs)
	}
	return out
}

// median returns the middle value (mean of the two middles for even
// counts). vs is sorted in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parseHeader captures the context lines `go test` prints before results.
func parseHeader(rep *Report, line string) {
	if s, ok := strings.CutPrefix(line, "goos: "); ok {
		rep.Goos = s
	} else if s, ok := strings.CutPrefix(line, "goarch: "); ok {
		rep.Goarch = s
	} else if s, ok := strings.CutPrefix(line, "pkg: "); ok {
		rep.Pkg = s
	} else if s, ok := strings.CutPrefix(line, "cpu: "); ok {
		rep.CPU = s
	}
}

// parseBenchLine parses one result line of the form
//
//	BenchmarkName-8   3   80680280 ns/op   1204 allocs/op   166.2 sim-s/op
//
// into a Result. Non-benchmark lines report ok=false.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, false
	}
	name := fields[0]
	if !strings.HasPrefix(name, "Benchmark") {
		return Result{}, false
	}
	var runs int64
	if _, err := fmt.Sscanf(fields[1], "%d", &runs); err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Runs: runs, Metrics: make(map[string]float64, (len(fields)-2)/2)}
	for i := 2; i+1 < len(fields); i += 2 {
		var v float64
		if _, err := fmt.Sscanf(fields[i], "%g", &v); err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}
