// Command gridgen expands a parameter-grid sweep description into a
// plain suite-spec file: grid JSON in, suite JSON out. The expansion is
// the same deterministic cross-product `suite -grid` runs in-process —
// materializing it lets the suite be inspected, diffed, committed, or
// handed to a runner that only speaks suite specs.
//
// Usage:
//
//	gridgen grid.json                  # expanded suite on stdout
//	gridgen -o suite.json grid.json
//	gridgen -names grid.json           # one scenario name per line
//
// -names lists every expanded scenario name in suite order, which is the
// order a farm coordinator (cmd/coordinator) seeds its lease queue with:
// a preview of a sweep's work units without running anything.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"offramps"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gridgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gridgen", flag.ContinueOnError)
	var (
		out   = fs.String("o", "", "write the expanded suite spec to `file` (default stdout)")
		names = fs.Bool("names", false, "print expanded scenario names instead of the suite JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("want exactly one grid file, got %d args", fs.NArg())
	}

	g, err := offramps.LoadGridSpec(fs.Arg(0))
	if err != nil {
		return err
	}
	suite, err := g.Expand()
	if err != nil {
		return err
	}

	if *names {
		for _, name := range suite.ScenarioNames() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}

	w := stdout
	var f *os.File
	if *out != "" {
		if f, err = os.Create(*out); err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(suite); err != nil {
		return err
	}
	if f != nil {
		return f.Close()
	}
	return nil
}
