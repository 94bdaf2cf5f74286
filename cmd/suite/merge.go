package main

import (
	"fmt"
	"io"
	"os"

	"offramps"
)

// Restitching. A -jsonl stream, or a farm coordinator's journal, carries
// every scenario and comparison row of a run, in completion order. The
// merge re-expands the suite (or grid) to recover the canonical scenario
// order, stitches the stream's rows back into that order (StitchReport),
// and re-emits through the same JSON encoder the live path uses
// (EncodeReport) — so the restitched report is byte-identical to the
// -json report of the run that wrote the stream. Rows are carried as raw
// JSON: the merge never re-simulates, re-parses floats, or reorders
// keys.

func runMerge(grid bool, seed uint64, paths []string, jsonOut string, stdout io.Writer) error {
	if len(paths) != 2 {
		return fmt.Errorf("-merge needs the spec/grid file followed by exactly one -jsonl stream or farm journal")
	}
	suite, err := offramps.LoadSuiteOrGrid(paths[0], grid)
	if err != nil {
		return err
	}
	if seed != 0 {
		suite.BaseSeed = seed
	}

	stream := paths[1]
	f, err := os.Open(stream)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	ix, err := offramps.ReadResumeIndex(f, suite.Name)
	f.Close()
	if err != nil {
		return fmt.Errorf("stream %s: %w", stream, err)
	}
	if err := ix.Validate(suite); err != nil {
		return fmt.Errorf("stream %s: %w", stream, err)
	}
	if ix.Torn {
		// An interrupted run's tail; the dropped row surfaces as a
		// coverage gap in the stitch.
		fmt.Fprintf(stdout, "note: %s ends in a torn line (dropped)\n", stream)
	}

	merged, err := offramps.StitchReport(suite, ix.Scenarios, ix.Compares)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "restitched suite %s from %s: %d scenarios, %d comparisons\n",
		suite.Name, stream, len(merged.Results), len(merged.Comparisons))
	if jsonOut != "" {
		if err := writeJSONDoc(jsonOut, stdout, offramps.RawReportDoc{Suites: []offramps.RawSuiteReport{*merged}}); err != nil {
			return fmt.Errorf("json: %w", err)
		}
	}
	return merged.FirstError()
}
