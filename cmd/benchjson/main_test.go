package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	line := "BenchmarkGoldenPrint \t       3\t  80680280 ns/op\t   1198928 events/op\t       166.2 sim-s/op\t 2946872 B/op\t    1204 allocs/op"
	r, ok := parseBenchLine(line)
	if !ok {
		t.Fatal("benchmark line not recognized")
	}
	if r.Name != "BenchmarkGoldenPrint" || r.Runs != 3 {
		t.Errorf("name/runs = %q/%d", r.Name, r.Runs)
	}
	want := map[string]float64{
		"ns/op":     80680280,
		"events/op": 1198928,
		"sim-s/op":  166.2,
		"B/op":      2946872,
		"allocs/op": 1204,
	}
	for unit, v := range want {
		if r.Metrics[unit] != v {
			t.Errorf("metric %s = %v, want %v", unit, r.Metrics[unit], v)
		}
	}
}

func TestParseBenchLineWithGOMAXPROCSSuffix(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkCampaign-8   5   1000000 ns/op   42 allocs/op")
	if !ok || r.Name != "BenchmarkCampaign-8" || r.Metrics["allocs/op"] != 42 {
		t.Errorf("parsed %+v ok=%v", r, ok)
	}
}

func TestParseBenchLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \tofframps\t1.028s",
		"",
		"BenchmarkBroken abc ns/op",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("line %q misparsed as a benchmark", line)
		}
	}
}

func TestRunAggregatesRepetitionsToMedians(t *testing.T) {
	input := strings.Join([]string{
		"goos: linux",
		"BenchmarkGoldenPrint-8   2   100 ns/op   10 allocs/op",
		"BenchmarkCampaign-8      4   500 ns/op",
		"BenchmarkGoldenPrint-8   2   900 ns/op   14 allocs/op", // outlier
		"BenchmarkGoldenPrint-8   3   110 ns/op   12 allocs/op",
		"BenchmarkCampaign-8      4   520 ns/op",
		"PASS",
	}, "\n")
	var out strings.Builder
	if err := run(strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 3 {
		t.Errorf("runs = %d, want 3", rep.Runs)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d, want 2 (repetitions must collapse)", len(rep.Benchmarks))
	}
	gp := rep.Benchmarks[0]
	if gp.Name != "BenchmarkGoldenPrint-8" || gp.Metrics["ns/op"] != 110 || gp.Metrics["allocs/op"] != 12 {
		t.Errorf("median not taken: %+v", gp)
	}
	if gp.Runs != 2 {
		t.Errorf("iteration median = %d, want 2", gp.Runs)
	}
	if c := rep.Benchmarks[1]; c.Metrics["ns/op"] != 510 {
		t.Errorf("even-count median = %v, want 510", c.Metrics["ns/op"])
	}
}

func TestRunSingleShotKeepsLegacyShape(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader("BenchmarkGoldenPrint-8   2   100 ns/op"), &out); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 0 {
		t.Errorf("single-shot report grew a top-level runs field: %d", rep.Runs)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Metrics["ns/op"] != 100 {
		t.Errorf("single-shot result mangled: %+v", rep.Benchmarks)
	}
}

// TestRunLabelsEachBenchmarkWithItsPackage: `go test -bench ./...` over
// several packages prints one pkg: header per package; each benchmark
// keeps the package it ran in (not the last header seen), same-named
// benchmarks of two packages stay apart, and the top-level pkg is
// dropped because no single package describes the report.
func TestRunLabelsEachBenchmarkWithItsPackage(t *testing.T) {
	input := strings.Join([]string{
		"goos: linux",
		"pkg: offramps",
		"BenchmarkGoldenPrint-8   2   100 ns/op",
		"BenchmarkShared-8        2   300 ns/op",
		"PASS",
		"ok  \tofframps\t1.0s",
		"goos: linux",
		"pkg: offramps/internal/sim",
		"BenchmarkEngineSchedule-8   100   50 ns/op",
		"BenchmarkShared-8           100   7 ns/op",
		"PASS",
	}, "\n")
	var out strings.Builder
	if err := run(strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Pkg != "" {
		t.Errorf("top-level pkg = %q, want none for a two-package report", rep.Pkg)
	}
	want := []struct {
		pkg, name string
		ns        float64
	}{
		{"offramps", "BenchmarkGoldenPrint-8", 100},
		{"offramps", "BenchmarkShared-8", 300},
		{"offramps/internal/sim", "BenchmarkEngineSchedule-8", 50},
		{"offramps/internal/sim", "BenchmarkShared-8", 7},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("benchmarks = %+v, want %d", rep.Benchmarks, len(want))
	}
	for i, w := range want {
		if b := rep.Benchmarks[i]; b.Pkg != w.pkg || b.Name != w.name || b.Metrics["ns/op"] != w.ns {
			t.Errorf("benchmark %d = %s %s %v, want %s %s %v", i, b.Pkg, b.Name, b.Metrics["ns/op"], w.pkg, w.name, w.ns)
		}
	}

	// A single-package report keeps its top-level pkg.
	out.Reset()
	if err := run(strings.NewReader("pkg: offramps\nBenchmarkGoldenPrint-8   2   100 ns/op"), &out); err != nil {
		t.Fatal(err)
	}
	rep = Report{}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Pkg != "offramps" || rep.Benchmarks[0].Pkg != "offramps" {
		t.Errorf("single-package report: pkg %q, benchmark pkg %q", rep.Pkg, rep.Benchmarks[0].Pkg)
	}
}

func TestParseHeader(t *testing.T) {
	rep := Report{}
	for _, line := range []string{
		"goos: linux",
		"goarch: amd64",
		"pkg: offramps",
		"cpu: Intel(R) Xeon(R) Processor @ 2.10GHz",
	} {
		parseHeader(&rep, line)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "offramps" || rep.CPU == "" {
		t.Errorf("header = %+v", rep)
	}
}

func TestBenchBase(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkCampaign-8":     "BenchmarkCampaign",
		"BenchmarkCampaign":       "BenchmarkCampaign",
		"BenchmarkCampaign-":      "BenchmarkCampaign-",
		"BenchmarkT2-Masking":     "BenchmarkT2-Masking",
		"BenchmarkGoldenPrint-16": "BenchmarkGoldenPrint",
	} {
		if got := benchBase(in); got != want {
			t.Errorf("benchBase(%q) = %q, want %q", in, got, want)
		}
	}
}

func writeBenchReport(t *testing.T, dir, name string, ns map[string]float64) string {
	t.Helper()
	rep := Report{}
	for bench, v := range ns {
		rep.Benchmarks = append(rep.Benchmarks, Result{Name: bench, Runs: 2, Metrics: map[string]float64{"ns/op": v}})
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCompareAnnotatesRegressions(t *testing.T) {
	dir := t.TempDir()
	old := writeBenchReport(t, dir, "old.json", map[string]float64{
		"BenchmarkGoldenPrint": 100_000_000, "BenchmarkCampaign-8": 400_000_000,
	})
	cur := writeBenchReport(t, dir, "new.json", map[string]float64{
		"BenchmarkGoldenPrint-8": 130_000_000, "BenchmarkCampaign": 390_000_000,
	})
	var out strings.Builder
	if err := runCompare(old, cur, "ns/op", "BenchmarkGoldenPrint,BenchmarkCampaign", 15, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "::warning title=bench regression::BenchmarkGoldenPrint ns/op regressed +30.0%") {
		t.Errorf("30%% regression not annotated:\n%s", text)
	}
	if strings.Contains(text, "::warning title=bench regression::BenchmarkCampaign") {
		t.Errorf("improvement annotated as regression:\n%s", text)
	}
	if !strings.Contains(text, "BenchmarkCampaign: ns/op 400000000 -> 390000000 (-2.5%)") {
		t.Errorf("delta line missing:\n%s", text)
	}
}

func TestRunCompareMissingBenchFails(t *testing.T) {
	dir := t.TempDir()
	old := writeBenchReport(t, dir, "old.json", map[string]float64{"BenchmarkGoldenPrint": 1})
	cur := writeBenchReport(t, dir, "new.json", map[string]float64{"BenchmarkOther": 1})
	var out strings.Builder
	err := runCompare(old, cur, "ns/op", "BenchmarkGoldenPrint", 15, &out)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing benchmark tolerated: %v", err)
	}

	// A benchmark present in both reports but without the tracked metric
	// in the new one is equally a broken harness, not a -100% win.
	old = writeBenchReport(t, dir, "old2.json", map[string]float64{"BenchmarkGoldenPrint": 100})
	cur = writeBenchReport(t, dir, "new2.json", map[string]float64{"BenchmarkGoldenPrint": 100})
	err = runCompare(old, cur, "allocs/op", "BenchmarkGoldenPrint", 15, &out)
	if err == nil || !strings.Contains(err.Error(), "no allocs/op") {
		t.Errorf("vanished metric tolerated: %v", err)
	}
}

func TestRunCompareAgainstCommittedBaseline(t *testing.T) {
	// The committed BENCH_<n>.json files must stay consumable by the CI
	// compare step. Pick the newest by numeric label, matching the CI
	// step's `sort -V` (lexical order breaks at BENCH_10).
	matches, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no committed BENCH files: %v", err)
	}
	latest, best := "", -1
	for _, m := range matches {
		label := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "BENCH_"), ".json")
		if n, err := strconv.Atoi(label); err == nil && n > best {
			latest, best = m, n
		}
	}
	if latest == "" {
		t.Fatalf("no numerically labelled BENCH files among %v", matches)
	}
	var out strings.Builder
	if err := runCompare(latest, latest, "ns/op", "BenchmarkGoldenPrint,BenchmarkCampaign", 15, &out); err != nil {
		t.Fatalf("self-compare of %s failed: %v", latest, err)
	}
	if !strings.Contains(out.String(), "(+0.0%)") {
		t.Errorf("self-compare deltas not zero:\n%s", out.String())
	}
}
