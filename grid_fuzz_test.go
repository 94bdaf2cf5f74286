package offramps

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseGridSpec feeds arbitrary bytes through the grid front end
// every loader shares. The contract under fuzzing: parsing, expansion
// with the progressive layout, and validation never panic or hang —
// however large a sweep the bytes describe, rejecting it is the only
// acceptable failure. The corpus seeds are every committed grid plus a
// seed axis spanning all of uint64.
func FuzzParseGridSpec(f *testing.F) {
	grids, err := filepath.Glob(filepath.Join("examples", "specs", "grid_*.json"))
	if err != nil || len(grids) == 0 {
		f.Fatalf("no committed grids to seed from: %v", err)
	}
	for _, path := range grids {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(wideSeedGrid))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseGridSpec(data, filepath.Join("examples", "specs"))
		if err != nil {
			return
		}
		suite, layout, err := g.ExpandLayout()
		if err != nil {
			return
		}
		if err := suite.Validate(); err != nil {
			t.Fatalf("expanded suite fails validation: %v", err)
		}
		_ = ValidateProgressive(suite, layout)
	})
}
