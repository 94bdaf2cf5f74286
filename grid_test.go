package offramps

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testGrid is a three-axis sweep used by the expansion property tests:
// 2 programs × 3 trojans × 2 taps = 12 cells plus one extra golden.
func testGrid() *GridSpec {
	return &GridSpec{
		Name:     "prop-grid",
		BaseSeed: 1,
		Extra:    []ScenarioSpec{{Name: "golden"}},
		Axes: GridAxes{
			Programs: []ProgramAxis{
				{},
				{ProgramSpec: ProgramSpec{Flaw3D: 3}},
			},
			Trojans: []TrojanAxis{
				{Label: "clean"},
				{TrojanSpec: TrojanSpec{Name: "T2"}},
				{TrojanSpec: TrojanSpec{Name: "T5"}},
			},
			Taps: []string{"arduino", "ramps"},
		},
		SeedPolicy:  &GridSeedPolicy{DeltaStart: 10},
		CompareWith: "golden",
	}
}

// TestGridExpandDeterministic expands the same grid twice and requires
// identical suites — scenario for scenario and byte for byte. The farm's
// lease queue and the -merge restitch rest on this property.
func TestGridExpandDeterministic(t *testing.T) {
	a, err := testGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two expansions differ:\n%+v\n%+v", a, b)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Errorf("expansion JSON differs:\n%s\n%s", aj, bj)
	}
}

// TestGridExpandCrossProduct checks the expansion's shape: the full
// cross-product, duplicate-free names, extras first, and the seeds
// innermost ordering.
func TestGridExpandCrossProduct(t *testing.T) {
	suite, err := testGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(suite.Scenarios), 1+2*3*2; got != want {
		t.Fatalf("scenarios = %d, want %d", got, want)
	}
	if suite.Scenarios[0].Name != "golden" {
		t.Errorf("extras must come first, got %q", suite.Scenarios[0].Name)
	}
	seen := make(map[string]bool)
	for _, sc := range suite.Scenarios {
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
	}
	// Fixed axis order: program, then trojan, then tap.
	if got, want := suite.Scenarios[1].Name, "testpart/clean/arduino"; got != want {
		t.Errorf("first cell = %q, want %q", got, want)
	}
	if got, want := suite.Scenarios[2].Name, "testpart/clean/ramps"; got != want {
		t.Errorf("second cell = %q, want %q", got, want)
	}
	last := suite.Scenarios[len(suite.Scenarios)-1]
	if got, want := last.Name, "flaw3d-3/T5/ramps"; got != want {
		t.Errorf("last cell = %q, want %q", got, want)
	}
	// Seed policy: deltas follow full-product order.
	if got, want := suite.Scenarios[1].SeedDelta, uint64(10); got != want {
		t.Errorf("first cell delta = %d, want %d", got, want)
	}
	if got, want := last.SeedDelta, uint64(10+11); got != want {
		t.Errorf("last cell delta = %d, want %d", got, want)
	}
	// One auto-compare per cell against the golden.
	if got, want := len(suite.Compare), 12; got != want {
		t.Errorf("compares = %d, want %d", got, want)
	}
	if err := suite.Validate(); err != nil {
		t.Errorf("expanded suite invalid: %v", err)
	}
}

// TestGridFilters exercises include/exclude semantics: excludes trim the
// product, includes whitelist it, and seed-policy deltas do not shift
// when neighbours are filtered away.
func TestGridFilters(t *testing.T) {
	g := testGrid()
	g.Exclude = []GridFilter{{Trojan: "T5"}}
	suite, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(suite.Scenarios), 1+2*2*2; got != want {
		t.Fatalf("after exclude: scenarios = %d, want %d", got, want)
	}
	for _, sc := range suite.Scenarios {
		if strings.Contains(sc.Name, "T5") {
			t.Errorf("excluded cell %q survived", sc.Name)
		}
	}
	// flaw3d-3/T2/arduino sat at full-product index 8 before filtering;
	// its delta must not shift because the T5 cells were excluded.
	for _, sc := range suite.Scenarios {
		if sc.Name == "flaw3d-3/T2/arduino" {
			if got, want := sc.SeedDelta, uint64(10+8); got != want {
				t.Errorf("filtered expansion shifted seed delta: %d, want %d", got, want)
			}
		}
	}

	g = testGrid()
	g.Include = []GridFilter{{Name: "*/T2/*"}, {Trojan: "clean", Tap: "ramps"}}
	suite, err = g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 4 T2 cells (glob) + 2 clean/ramps cells (label match) + golden.
	if got, want := len(suite.Scenarios), 1+4+2; got != want {
		t.Fatalf("after include: scenarios = %d, want %d:\n%+v", got, want, suite.Scenarios)
	}

	g = testGrid()
	g.Exclude = []GridFilter{{}}
	if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), "empty include/exclude filter") {
		t.Errorf("empty filter accepted: %v", err)
	}

	g = testGrid()
	g.Include = []GridFilter{{Trojan: "no-such-trojan"}}
	if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), "filters removed every cell") {
		t.Errorf("all-cells-filtered grid accepted: %v", err)
	}

	// A filter naming an axis the grid does not sweep would silently
	// never match — it must be rejected, not ignored.
	g = testGrid()
	g.Exclude = []GridFilter{{Detector: "attestation"}}
	if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), "does not sweep") {
		t.Errorf("filter on unswept axis accepted: %v", err)
	}
}

// TestGridConflicts checks that a template field and the axis sweeping
// it cannot both be set, and that seed knobs are mutually exclusive.
func TestGridConflicts(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*GridSpec)
		want string
	}{
		{"template trojan vs axis", func(g *GridSpec) { g.Template.Trojan = &TrojanSpec{Name: "T1"} }, "conflicts with template.trojan"},
		{"template tap vs axis", func(g *GridSpec) { g.Template.Tap = "dual" }, "conflicts with template.tap"},
		{"template program vs axis", func(g *GridSpec) { g.Template.Program = ProgramSpec{Flaw3D: 1} }, "conflicts with template.program"},
		{"seed policy vs template seed", func(g *GridSpec) { g.Template.Seed = 9 }, "seedPolicy conflicts"},
		{"seed policy vs seeds axis", func(g *GridSpec) { g.Axes.Seeds = &SeedAxis{From: 1, To: 3} }, "seedPolicy conflicts"},
		{"no name", func(g *GridSpec) { g.Name = "" }, "needs a name"},
	}
	for _, tc := range cases {
		g := testGrid()
		tc.mut(g)
		_, err := g.Expand()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestSeedAxis checks range expansion and the absolute-seed-zero guard.
func TestSeedAxis(t *testing.T) {
	g := testGrid()
	g.SeedPolicy = nil
	g.Axes.Seeds = &SeedAxis{From: 3, To: 9, Step: 3}
	suite, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(suite.Scenarios), 1+12*3; got != want {
		t.Fatalf("scenarios = %d, want %d", got, want)
	}
	var seeds []uint64
	for _, sc := range suite.Scenarios[1:4] {
		seeds = append(seeds, sc.Seed)
	}
	if !reflect.DeepEqual(seeds, []uint64{3, 6, 9}) {
		t.Errorf("seeds innermost = %v, want [3 6 9]", seeds)
	}

	g.Axes.Seeds = &SeedAxis{Values: []uint64{0, 1}}
	if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), "seed 0 is reserved") {
		t.Errorf("absolute seed 0 accepted: %v", err)
	}
	g.Axes.Seeds = &SeedAxis{Values: []uint64{0, 1}, Delta: true}
	if _, err := g.Expand(); err != nil {
		t.Errorf("delta seed 0 rejected: %v", err)
	}
}

// wideSeedGrid is a one-line grid file whose seed axis spans all 2^64
// seeds; it must fail with an error, not exhaust memory materializing
// the range.
const wideSeedGrid = `{"name":"wide","axes":{"seeds":{"from":0,"to":18446744073709551615}}}`

// TestGridCellCap: a grid's size is computed arithmetically and bounded
// before any axis is materialized, across every front-end loader.
func TestGridCellCap(t *testing.T) {
	g, err := ParseGridSpec([]byte(wideSeedGrid), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), "18446744073709551616 cells") {
		t.Errorf("wide seed axis: err = %v, want the cell count named", err)
	}
	path := filepath.Join(t.TempDir(), "grid_wide.json")
	if err := os.WriteFile(path, []byte(wideSeedGrid), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSuiteOrGrid(path, false); err == nil {
		t.Error("LoadSuiteOrGrid accepted the wide grid")
	}
	if _, _, err := LoadSuiteOrGridLayout(path, false); err == nil {
		t.Error("LoadSuiteOrGridLayout accepted the wide grid")
	}

	// The cap bounds the whole product, not each axis: 12 cells times a
	// seed axis just over cap/12 is rejected.
	g = testGrid()
	g.SeedPolicy = nil
	g.Axes.Seeds = &SeedAxis{From: 1, To: maxGridCells/12 + 1}
	if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("product over the cap accepted: %v", err)
	}

	// A range ending at the top of uint64 steps without wrapping around.
	g.Axes.Seeds = &SeedAxis{From: math.MaxUint64 - 5, To: math.MaxUint64, Step: 4}
	suite, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if got := []uint64{suite.Scenarios[1].Seed, suite.Scenarios[2].Seed}; !reflect.DeepEqual(got, []uint64{math.MaxUint64 - 5, math.MaxUint64 - 1}) {
		t.Errorf("top-of-range seeds = %v", got)
	}
	if got, want := len(suite.Scenarios), 1+12*2; got != want {
		t.Errorf("scenarios = %d, want %d", got, want)
	}
}

// TestParseGridSpecStrict mirrors the suite parser's strictness: unknown
// fields and trailing content fail loudly.
func TestParseGridSpecStrict(t *testing.T) {
	if _, err := ParseGridSpec([]byte(`{"name":"g","axes":{"tapps":["ramps"]}}`), ""); err == nil {
		t.Error("unknown axis field accepted")
	}
	if _, err := ParseGridSpec([]byte(`{"name":"g","axes":{}} {"second":true}`), ""); err == nil || !strings.Contains(err.Error(), "trailing content") {
		t.Errorf("trailing content accepted: %v", err)
	}
}

// TestSubset: a single-name subset — what a farm lease resolves to —
// carries its full golden chain plus exactly the comparisons the named
// scenario draws as suspect; unknown names are refused.
func TestSubset(t *testing.T) {
	suite := &SuiteSpec{
		Name: "subset",
		Scenarios: []ScenarioSpec{
			{Name: "root"},
			{Name: "mid", Detector: &DetectorSpec{Name: "golden-monitor", Golden: "root"}},
			{Name: "leaf", Detector: &DetectorSpec{Name: "golden-monitor", Golden: "mid"}},
		},
		Compare: []CompareSpec{
			{Golden: "root", Suspect: "leaf"},
			{Golden: "root", Suspect: "mid"},
		},
	}
	sub, err := suite.Subset("leaf")
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.ScenarioNames(); !reflect.DeepEqual(got, []string{"root", "mid", "leaf"}) {
		t.Errorf("sub-suite scenarios = %v, want the golden chain in suite order", got)
	}
	if len(sub.Compare) != 1 || sub.Compare[0].Suspect != "leaf" {
		t.Errorf("sub-suite compares = %v, want only leaf's", sub.Compare)
	}
	if sub, err := suite.Subset("root"); err != nil || len(sub.Scenarios) != 1 || len(sub.Compare) != 0 {
		t.Errorf("Subset(root) = %+v, %v; want root alone", sub, err)
	}

	if _, err := suite.Subset("no-such"); err == nil {
		t.Error("Subset of an unknown scenario accepted")
	}
}

// TestShardGoldenClosure: a sweep is sharded one farm lease at a time,
// and every golden a leased scenario depends on — through a detector
// chain or a comparison — must travel with it. For every scenario of a
// detector-chain suite and of the expanded property grid, the lease's
// sub-suite keeps the scenario, resolves every golden it references, and
// runs no scenario the lease does not need.
func TestShardGoldenClosure(t *testing.T) {
	chain := &SuiteSpec{
		Name: "closure",
		Scenarios: []ScenarioSpec{
			{Name: "root"},
			{Name: "mid", Detector: &DetectorSpec{Name: "golden-monitor", Golden: "root"}},
			{Name: "leaf", Detector: &DetectorSpec{Name: "golden-monitor", Golden: "mid"}},
			{Name: "other", Detector: &DetectorSpec{Name: "golden-monitor", Golden: "root"}},
		},
		Compare: []CompareSpec{{Golden: "mid", Suspect: "other"}},
	}
	grid, err := testGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, suite := range []*SuiteSpec{chain, grid} {
		for _, name := range suite.ScenarioNames() {
			sub, err := suite.Subset(name)
			if err != nil {
				t.Fatalf("%s: Subset(%s): %v", suite.Name, name, err)
			}
			if err := sub.Validate(); err != nil {
				t.Errorf("%s: lease %s is not closed: %v", suite.Name, name, err)
			}
			roots := []string{name}
			for _, cmp := range sub.Compare {
				if cmp.Suspect != name {
					t.Errorf("%s: lease %s carries comparison %s→%s", suite.Name, name, cmp.Golden, cmp.Suspect)
				}
				roots = append(roots, cmp.Golden)
			}
			need := make(map[string]bool)
			for _, cur := range roots {
				for cur != "" && !need[cur] {
					need[cur] = true
					sc, _ := suite.FindScenario(cur)
					cur = ""
					if sc.Detector != nil {
						cur = sc.Detector.Golden
					}
				}
			}
			for _, sc := range sub.Scenarios {
				if !need[sc.Name] {
					t.Errorf("%s: lease %s runs unneeded scenario %s", suite.Name, name, sc.Name)
				}
			}
			if _, ok := sub.FindScenario(name); !ok {
				t.Errorf("%s: lease %s lacks its own scenario", suite.Name, name)
			}
		}
	}
}
