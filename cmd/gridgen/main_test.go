package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"offramps"
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

// TestGridgenRoundTrips expands the committed Table II grid and feeds
// the output back through the strict suite parser: gridgen's JSON is a
// complete, valid suite spec.
func TestGridgenRoundTrips(t *testing.T) {
	grid := filepath.Join(repoRoot(t), "examples", "specs", "grid_tableii.json")
	var out strings.Builder
	if err := run([]string{grid}, &out); err != nil {
		t.Fatal(err)
	}
	suite, err := offramps.ParseSuiteSpec([]byte(out.String()), filepath.Dir(grid))
	if err != nil {
		t.Fatalf("gridgen output does not parse as a suite spec: %v", err)
	}
	if suite.Name != "table2-grid" {
		t.Errorf("suite name = %q", suite.Name)
	}
	if len(suite.Scenarios) != 10 || len(suite.Compare) != 9 {
		t.Errorf("suite shape: %d scenarios, %d compares", len(suite.Scenarios), len(suite.Compare))
	}
}

// TestGridgenNames: -names lists every scenario once, in suite order —
// the order a farm coordinator seeds its lease queue with.
func TestGridgenNames(t *testing.T) {
	grid := filepath.Join(repoRoot(t), "examples", "specs", "grid_tableii.json")
	var out strings.Builder
	if err := run([]string{"-names", grid}, &out); err != nil {
		t.Fatal(err)
	}
	suite, err := offramps.LoadSuiteOrGrid(grid, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Fields(out.String()), suite.ScenarioNames(); !reflect.DeepEqual(got, want) || len(got) != 10 {
		t.Errorf("names = %v, want %v", got, want)
	}
}

// TestGridgenRejectsBadInput covers the CLI guards.
func TestGridgenRejectsBadInput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{}, &out); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"-names", "-shard", "1/2", "grid.json"}, &out); err == nil {
		t.Error("retired -shard flag accepted")
	}
	wide := filepath.Join(t.TempDir(), "grid_wide.json")
	if err := os.WriteFile(wide, []byte(`{"name":"wide","axes":{"seeds":{"from":0,"to":18446744073709551615}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-names", wide}, &out); err == nil || !strings.Contains(err.Error(), "18446744073709551616 cells") {
		t.Errorf("wide seed grid: err = %v, want the cell count named", err)
	}
	if err := run([]string{filepath.Join(t.TempDir(), "nope.json")}, &out); err == nil {
		t.Error("missing grid file accepted")
	}
}
