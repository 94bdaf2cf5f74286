package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"offramps/perfbench/spans"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the smoke test holds
// the program to.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runOnce runs the benchmark at minimal size (one timed pass) and
// returns its result line.
func runOnce(t *testing.T, workload, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "1", "--seconds", "0", "--trace", trace, "--root", ".."}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if code != 0 {
		t.Fatalf("%s --trace %s: exit %d\nstderr: %s", workload, trace, code, stderr.String())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s --trace %s: last line is not a result: %v", workload, trace, err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s --trace %s: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	if !strings.HasPrefix(lines[len(lines)-2], "env {") {
		t.Errorf("%s --trace %s: no environment stamp before the result", workload, trace)
	}
	return res
}

// checkMetrics asserts the result carries exactly the named metrics,
// each with its declared unit.
func checkMetrics(t *testing.T, what string, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", what, m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", what, m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		var names []string
		for name := range res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d: %v", what, len(res.Metrics), len(want), names)
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmark(t)
	var named []string
	for _, w := range b.Workloads {
		named = append(named, w.Name)
	}
	if got, want := strings.Join(workloadNames(), ","), strings.Join(named, ","); got != want {
		t.Fatalf("program workloads %s, BENCHMARK.json %s", got, want)
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	b := readBenchmark(t)
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			checkMetrics(t, w.Name, runOnce(t, w.Name, "0"), b.EndToEnd)
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	b := readBenchmark(t)
	checkMetrics(t, "traced run", runOnce(t, b.Workloads[0].Name, "1"), b.PerLayer)
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seed", "1", "--seconds", "0", "--trace", "0"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}

// TestFarmSweepConcurrency drives the benchmark's concurrent parts — two
// farm workers, the timing transport and the span recorder — through an
// untraced and a traced sweep over one set-up. Run it with -race.
func TestFarmSweepConcurrency(t *testing.T) {
	if err := os.MkdirAll("../.bench_build", 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp("../.bench_build", "test-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	cfg := config{workload: "farm-progressive", seed: 1, root: "..", work: dir}
	inst, err := setupFarm(ctx, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	f := inst.(*farmInstance)
	if _, err := f.pass(ctx, 0); err != nil {
		t.Fatal(err)
	}
	rec := spans.NewRecorder()
	id := rec.Begin(0, "farm.sweep", "")
	ft := &farmTrace{rec: rec, parent: id, waiting: make(map[string]time.Time)}
	s, err := f.sweep(ctx, 1, ft.transport)
	requests, _ := ft.finish()
	rec.End(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.doc, f.want) {
		t.Fatal("traced sweep's report differs from the untraced sweep's")
	}
	if n := len(rec.Spans()); requests == 0 || n != requests+1 {
		t.Fatalf("%d requests, %d spans", requests, n)
	}
}
