// Command tracesum reduces a span file written by a traced benchmark run
// (perfbench --trace 1) to per-layer self time and span counts, the
// per-layer metrics under the names BENCHMARK.json uses, and the
// tracing overhead of each replayed workload.
//
// Usage (from perfbench/):
//
//	go run ./tracesum ../.bench_build/trace/tableii-cold-seed1.jsonl
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"offramps/perfbench/spans"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracesum <span file>")
		os.Exit(2)
	}
	if err := summarize(os.Args[1], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracesum:", err)
		os.Exit(1)
	}
}

func summarize(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	h, all, err := spans.Read(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace of %s at seed %d: %d spans\n", h.Workload, h.Seed, len(all))
	keys := make([]string, 0, len(h.Env))
	for k := range h.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s: %s\n", k, h.Env[k])
	}

	self, count := spans.LayerTotals(all)
	var total time.Duration
	for _, d := range self {
		total += d
	}
	fmt.Fprintf(w, "\n%-12s %12s %7s %7s\n", "layer", "self", "share", "spans")
	for _, layer := range spans.Layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(self[layer]) / float64(total)
		}
		fmt.Fprintf(w, "%-12s %12v %6.1f%% %7d\n", layer, self[layer].Round(time.Microsecond), share, count[layer])
	}

	fmt.Fprintln(w, "\ntracing overhead (traced replay vs untraced serial run):")
	for _, o := range spans.Overheads(all) {
		fmt.Fprintf(w, "  %-18s traced %12v untraced %12v %+6.1f%%\n",
			o.Workload, o.Traced.Round(time.Microsecond), o.Untraced.Round(time.Microsecond), 100*o.Frac)
	}

	metrics := spans.Summarize(all)
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "\nper-layer metrics:")
	for _, name := range names {
		fmt.Fprintf(w, "  %-30s %.6g\n", name, metrics[name])
	}
	return nil
}
