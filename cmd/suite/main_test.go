package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"offramps"
	"offramps/internal/farm"
)

// repoRoot walks up from the test's working directory to the module root
// so the committed example specs resolve.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("module root not found")
		}
		dir = parent
	}
}

// TestTapsideExampleSpec executes the committed tap-placement spec file
// end to end — the acceptance scenario for the composable rig topology: a
// RAMPS-side tap detects a board-injected trojan that the paper's
// Arduino-side tap misses.
func TestTapsideExampleSpec(t *testing.T) {
	spec := filepath.Join(repoRoot(t), "examples", "specs", "tapside.json")
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	csvPath := filepath.Join(t.TempDir(), "rows.csv")

	var out strings.Builder
	if err := run([]string{"-json", jsonPath, "-csv", csvPath, spec}, &out); err != nil {
		t.Fatal(err)
	}

	text := out.String()
	if !strings.Contains(text, "compare golden vs arduino-tap [golden-comparator]: no trojan suspected") {
		t.Errorf("arduino-side tap did not stay blind to the board's own trojan:\n%s", text)
	}
	if !strings.Contains(text, "compare golden vs ramps-tap [golden-comparator]: TROJAN LIKELY") {
		t.Errorf("ramps-side tap did not detect the board-injected trojan:\n%s", text)
	}

	// The JSON sink round-trips and carries both verdicts.
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Suites []struct {
			Suite       string `json:"suite"`
			Comparisons []struct {
				Suspect string `json:"suspect"`
				Report  struct {
					TrojanLikely  bool
					NumMismatches int
				} `json:"report"`
			} `json:"comparisons"`
		} `json:"suites"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("JSON sink: %v", err)
	}
	if len(doc.Suites) != 1 || len(doc.Suites[0].Comparisons) != 2 {
		t.Fatalf("JSON sink shape: %+v", doc)
	}
	byName := map[string]bool{}
	for _, c := range doc.Suites[0].Comparisons {
		byName[c.Suspect] = c.Report.TrojanLikely
	}
	if byName["arduino-tap"] {
		t.Error("JSON: arduino-tap flagged")
	}
	if !byName["ramps-tap"] {
		t.Error("JSON: ramps-tap not flagged")
	}

	// The CSV sink has a header plus one row per scenario and comparison.
	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csvData)), "\n")
	if len(lines) != 1+3+2 {
		t.Errorf("CSV rows = %d, want 6:\n%s", len(lines), csvData)
	}
	if !strings.HasPrefix(lines[0], "kind,suite,name,seed") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

// TestLiveMonitorExampleSpec executes the committed two-wave spec: the
// suspect's golden-monitor detector references the golden scenario's
// capture and aborts the tampered print mid-run.
func TestLiveMonitorExampleSpec(t *testing.T) {
	spec := filepath.Join(repoRoot(t), "examples", "specs", "live_monitor.json")
	var out strings.Builder
	if err := run([]string{spec}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "TROJAN LIKELY (aborted)") {
		t.Errorf("live monitor did not abort the tampered print:\n%s", out.String())
	}
}

// TestAttestationExampleSpec executes the committed self-attestation
// spec end to end — the acceptance scenario for tap-addressable
// detection: a dual-tap attestation detector flags a board-run T2 in a
// single print with no golden reference, while the same run's Arduino-
// side capture passes the paper's golden workflow.
func TestAttestationExampleSpec(t *testing.T) {
	spec := filepath.Join(repoRoot(t), "examples", "specs", "attestation.json")
	var out strings.Builder
	if err := run([]string{spec}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	lines := strings.Split(text, "\n")
	scenarioVerdict := func(name string) string {
		for _, l := range lines {
			if strings.HasPrefix(l, name+" ") {
				return l
			}
		}
		t.Fatalf("scenario %q missing from output:\n%s", name, text)
		return ""
	}
	if l := scenarioVerdict("attested"); !strings.Contains(l, "TROJAN LIKELY") {
		t.Errorf("dual-tap attestation did not flag the board trojan: %q", l)
	}
	if l := scenarioVerdict("clean-attested"); strings.Contains(l, "TROJAN LIKELY") {
		t.Errorf("clean dual-tap attestation false-positived: %q", l)
	}
	if !strings.Contains(text, "compare golden vs attested [golden-comparator]: no trojan suspected") {
		t.Errorf("the trojaned run's arduino-side capture did not pass the paper's golden workflow:\n%s", text)
	}
}

func TestRunRejectsMissingSpec(t *testing.T) {
	var out strings.Builder
	if err := run([]string{filepath.Join(t.TempDir(), "nope.json")}, &out); err == nil {
		t.Error("missing spec file accepted")
	}
	if err := run([]string{}, &out); err == nil {
		t.Error("empty spec list accepted")
	}
}

// TestGridTableIIExampleSpec runs the committed Table II grid sweep in
// -grid mode: the generator expands the eight Flaw3D cases plus golden
// and clean control, and every tampered print is detected while the
// clean control passes — the paper's Table II from a 30-line grid file.
func TestGridTableIIExampleSpec(t *testing.T) {
	spec := filepath.Join(repoRoot(t), "examples", "specs", "grid_tableii.json")
	var out strings.Builder
	if err := run([]string{"-grid", spec}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for i := 1; i <= 8; i++ {
		want := fmt.Sprintf("compare golden vs flaw3d-%d [golden-comparator]: TROJAN LIKELY", i)
		if !strings.Contains(text, want) {
			t.Errorf("flaw3d case %d not detected:\n%s", i, text)
		}
	}
	if !strings.Contains(text, "compare golden vs clean-control [golden-comparator]: no trojan suspected") {
		t.Errorf("clean control false-positived:\n%s", text)
	}
}

// runAndRestitch runs a spec with both -json and -jsonl, restitches the
// stream through -merge, and returns the live report, the restitched
// one, and the stream's path. extra flags (e.g. -grid, -seed) apply to
// both invocations.
func runAndRestitch(t *testing.T, spec string, extra ...string) (live, restitched []byte, stream string) {
	t.Helper()
	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")
	merged := filepath.Join(dir, "merged.json")
	stream = filepath.Join(dir, "rows.jsonl")
	var out strings.Builder
	if err := run(append(append([]string{}, extra...), "-jsonl", stream, "-json", full, spec), &out); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{"-merge"}, extra...), "-json", merged, spec, stream), &out); err != nil {
		t.Fatalf("merge: %v", err)
	}
	var err error
	if live, err = os.ReadFile(full); err != nil {
		t.Fatal(err)
	}
	if restitched, err = os.ReadFile(merged); err != nil {
		t.Fatal(err)
	}
	return live, restitched, stream
}

// TestMergeFromJSONLStreams: for base seeds 1 and 7, -merge restitches a
// run's own -jsonl stream — rows in completion order, comparisons last —
// into a report byte-identical to that run's -json report.
func TestMergeFromJSONLStreams(t *testing.T) {
	grid := filepath.Join("testdata", "grid_small.json")
	for _, seed := range []string{"1", "7"} {
		t.Run("seed"+seed, func(t *testing.T) {
			live, restitched, _ := runAndRestitch(t, grid, "-grid", "-seed", seed)
			if !bytes.Equal(restitched, live) {
				t.Errorf("restitched report is not byte-identical to the live run\nlive:        %d bytes\nrestitched: %d bytes", len(live), len(restitched))
			}
		})
	}
}

// TestShardMergeByteIdentical is the sharding acceptance test: for base
// seeds 1 and 7, the grid is split across two farm workers, one lease at
// a time, and `suite -merge` restitches the coordinator's journal into a
// report byte-identical to the unsharded `suite -json` run's.
func TestShardMergeByteIdentical(t *testing.T) {
	grid := filepath.Join("testdata", "grid_small.json")
	for _, seed := range []uint64{1, 7} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			full := filepath.Join(dir, "full.json")
			var out strings.Builder
			if err := run([]string{"-grid", "-seed", fmt.Sprint(seed), "-json", full, grid}, &out); err != nil {
				t.Fatal(err)
			}

			spec, err := offramps.LoadSuiteOrGrid(grid, true)
			if err != nil {
				t.Fatal(err)
			}
			spec.BaseSeed = seed
			journal := filepath.Join(dir, "sweep.jsonl")
			co, err := farm.NewCoordinator(spec, farm.Config{TTL: 30 * time.Second, Journal: journal})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(co.Handler())
			var wg sync.WaitGroup
			errs := make(chan error, 2)
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					w := &farm.Worker{Client: &farm.Client{Base: srv.URL}, Name: fmt.Sprintf("w%d", i), Poll: 5 * time.Millisecond}
					if _, err := w.Run(context.Background()); err != nil {
						errs <- fmt.Errorf("worker %d: %w", i, err)
					}
				}(i)
			}
			wg.Wait()
			srv.Close()
			if err := co.Close(); err != nil {
				t.Fatal(err)
			}
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			merged := filepath.Join(dir, "merged.json")
			if err := run([]string{"-grid", "-merge", "-seed", fmt.Sprint(seed), "-json", merged, grid, journal}, &out); err != nil {
				t.Fatalf("merge: %v", err)
			}
			want, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(merged)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("merged report is not byte-identical to the unsharded run\nunsharded: %d bytes\nmerged:    %d bytes", len(want), len(got))
			}
		})
	}
}

// TestMergeDetectsCoverageGap: a stream missing a scenario row — here an
// interrupted run whose last scenario row is torn — must fail loudly,
// not emit a silently incomplete report.
func TestMergeDetectsCoverageGap(t *testing.T) {
	grid := filepath.Join("testdata", "grid_small.json")
	_, _, stream := runAndRestitch(t, grid, "-grid")
	data, err := os.ReadFile(stream)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	last := -1
	for i, line := range lines {
		if row, err := offramps.ParseStreamRow([]byte(line)); err == nil && row.Name != "" {
			last = i
		}
	}
	if last < 0 {
		t.Fatalf("stream has no scenario rows:\n%s", data)
	}
	gapped := filepath.Join(t.TempDir(), "gapped.jsonl")
	dropped := strings.Join(lines[:last], "") + strings.Join(lines[last+1:], "")
	if err := os.WriteFile(gapped, []byte(dropped), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err = run([]string{"-grid", "-merge", grid, gapped}, &out)
	if err == nil || !strings.Contains(err.Error(), "coverage gap") {
		t.Errorf("stream with a row removed accepted: %v", err)
	}

	torn := strings.Join(lines[:last], "") + lines[last][:len(lines[last])/2]
	if err := os.WriteFile(gapped, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = run([]string{"-grid", "-merge", grid, gapped}, &out)
	if err == nil || !strings.Contains(err.Error(), "coverage gap") {
		t.Errorf("stream with a torn last row accepted: %v", err)
	}
	if !strings.Contains(out.String(), "ends in a torn line") {
		t.Errorf("torn tail not noted:\n%s", out.String())
	}
}

// TestMergeFlagValidation covers the CLI-level -merge guards, and that
// the retired static -shard flag is gone.
func TestMergeFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-merge", "onlyspec.json"}, &out); err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Errorf("merge without a stream accepted: %v", err)
	}
	if err := run([]string{"-merge", "x.json", "a.jsonl", "b.jsonl"}, &out); err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Errorf("merge of two streams accepted: %v", err)
	}
	if err := run([]string{"-merge", "-csv", "rows.csv", "x.json", "y.jsonl"}, &out); err == nil || !strings.Contains(err.Error(), "not supported with -merge") {
		t.Errorf("-merge with -csv accepted: %v", err)
	}
	if err := run([]string{"-merge", "-progress", "x.json", "y.jsonl"}, &out); err == nil || !strings.Contains(err.Error(), "not supported with -merge") {
		t.Errorf("-merge with -progress accepted: %v", err)
	}
	if err := run([]string{"-merge", "-progressive", "x.json", "y.jsonl"}, &out); err == nil || !strings.Contains(err.Error(), "incompatible with -merge") {
		t.Errorf("-merge with -progressive accepted: %v", err)
	}
	if err := run([]string{"-shard", "1/4", filepath.Join("testdata", "grid_small.json")}, &out); err == nil {
		t.Error("retired -shard flag accepted")
	}
}

// TestRunRejectsWideGrid: a grid whose seed axis spans all of uint64 is
// refused with an error naming its size, before anything is expanded.
func TestRunRejectsWideGrid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid_wide.json")
	wide := `{"name":"wide","axes":{"seeds":{"from":0,"to":18446744073709551615}}}`
	if err := os.WriteFile(path, []byte(wide), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, args := range [][]string{{path}, {"-progressive", path}} {
		if err := run(args, &out); err == nil || !strings.Contains(err.Error(), "cells") {
			t.Errorf("suite %v: err = %v, want the cell cap", args, err)
		}
	}
}

// TestMergePerTapComparisons: two comparisons of the same scenario pair
// that differ only in tap (the attestation-style §V-D pattern) must
// survive the stream→merge round trip as distinct rows, byte-identical
// to the live report.
func TestMergePerTapComparisons(t *testing.T) {
	live, restitched, _ := runAndRestitch(t, filepath.Join("testdata", "pertap_compare.json"))
	if !bytes.Equal(restitched, live) {
		t.Errorf("per-tap restitched report differs from the live run")
	}
	if !strings.Contains(string(live), `"suspectTap": "ramps"`) {
		t.Errorf("comparison rows do not carry their tap:\n%s", live)
	}
}

// TestGoldenStoreWarmRerun is the persistent-store acceptance test at
// the command level: a cold invocation populates -golden-store, a second
// invocation (fresh process state: new cache, reopened store) replays
// the suite with zero golden simulations, and the two JSON reports are
// byte-identical.
func TestGoldenStoreWarmRerun(t *testing.T) {
	spec := filepath.Join(repoRoot(t), "examples", "specs", "tapside.json")
	tmp := t.TempDir()
	storeDir := filepath.Join(tmp, "goldens")
	coldJSON := filepath.Join(tmp, "cold.json")
	warmJSON := filepath.Join(tmp, "warm.json")

	var coldOut strings.Builder
	if err := run([]string{"-golden-store", storeDir, "-json", coldJSON, spec}, &coldOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(coldOut.String(), "golden store: 0 hits, 1 misses, 1 simulations") {
		t.Errorf("cold run stats missing or wrong:\n%s", coldOut.String())
	}

	var warmOut strings.Builder
	if err := run([]string{"-golden-store", storeDir, "-json", warmJSON, spec}, &warmOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warmOut.String(), "golden store: 1 hits, 0 misses, 0 simulations") {
		t.Errorf("warm run still simulating goldens:\n%s", warmOut.String())
	}

	cold, err := os.ReadFile(coldJSON)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := os.ReadFile(warmJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("warm report differs from cold report")
	}
}
