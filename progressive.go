package offramps

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"offramps/internal/capture"
	"offramps/internal/sched"
)

// This file holds the one suite executor and the one verdict rule.
// Every suite runs through internal/sched, which decides which
// scenarios run (coverage first, refinement around detection
// boundaries, early stop for unanimous cells); RunSuiteProgressive
// executes each round as an ordinary campaign batch, feeding verdicts
// back. A plain suite (RunSuite) is the flat schedule: a grid of extras
// only, all dealt in round 1 in suite order. Scenarios the scheduler
// retires become synthesized skip rows — ScenarioResult errors with the
// canonical "skipped (...)" text — so the report, the JSONL streams,
// and StitchReport stay complete. Every executed scenario's row is
// byte-identical to the full run's row for the same name: execution
// inputs are per-scenario and never depend on which other scenarios
// ran.

// skippedResultPrefix marks a synthesized skip row's error text. The
// prefix — not a sentinel error type — is the contract, because skip
// rows round-trip through JSONL streams and farm journals as plain
// strings.
const skippedResultPrefix = "skipped ("

// SkipMessage renders the canonical error text of a synthesized skip
// row ("skipped (early-stop, 2/2 unanimous)").
func SkipMessage(reason string) string { return skippedResultPrefix + reason + ")" }

// IsSkippedResult reports whether a scenario or comparison error text
// marks a progressive-sweep skip row rather than a real failure, so
// exit-code checks can pass over skips while still failing on errors.
func IsSkippedResult(msg string) bool { return strings.HasPrefix(msg, skippedResultPrefix) }

// SweepStats summarizes a finished progressive sweep.
type SweepStats struct {
	sched.Stats
}

// Summary renders the stats as one progress line.
func (st SweepStats) Summary() string {
	return fmt.Sprintf("progressive: %d/%d cells covered, %d boundary cells, %d scenarios executed, %d skipped of %d (%d rounds)",
		st.Covered, st.Cells, st.Boundary, st.Executed, st.Skipped, st.Total, st.Rounds)
}

// ValidateProgressive checks that the suite is safely skippable under
// the layout: every golden reference — a detector's golden scenario or
// a comparison's golden side — must be one of the layout's extras.
// Extras always execute (round 1, never retired); a cell seed used as a
// golden could be skipped, and a compare or detector referencing a skip
// row would then diverge from the full run instead of reproducing it.
func ValidateProgressive(suite *SuiteSpec, layout *sched.Grid) error {
	extra := make(map[string]bool, len(layout.Extras))
	for _, name := range layout.Extras {
		extra[name] = true
	}
	for _, sc := range suite.Scenarios {
		if sc.Detector != nil && sc.Detector.Golden != "" && !extra[sc.Detector.Golden] {
			return fmt.Errorf("offramps: suite %q: progressive execution requires detector goldens to be grid extras, but %q references cell scenario %q", suite.Name, sc.Name, sc.Detector.Golden)
		}
	}
	for _, cmp := range suite.Compare {
		if !extra[cmp.Golden] {
			return fmt.Errorf("offramps: suite %q: progressive execution requires compare goldens to be grid extras, but %q vs %q compares against a cell scenario", suite.Name, cmp.Golden, cmp.Suspect)
		}
	}
	return nil
}

// VerdictFacts are the fields of one row that RowVerdict reads, from a
// scenario row or a comparison row (Detected is always false on a
// comparison row).
type VerdictFacts struct {
	// Failed marks a row with an error or without a result (report).
	Failed bool
	// Detected marks a scenario whose live detectors recorded reports.
	Detected bool
	// TrojanLikely is the row's own flag.
	TrojanLikely bool
}

// ParseVerdictFacts reads the verdict facts from a report-shaped row: a
// scenario row (ScenarioResult's JSON) or a comparison row
// (CompareResult's JSON). The two shapes share no keys the decode below
// reads, so one decode serves both. An unreadable row reads as failed.
func ParseVerdictFacts(raw json.RawMessage) VerdictFacts {
	type body struct {
		Detections   []struct{}
		TrojanLikely bool
	}
	var row struct {
		Err    string // scenario row
		Error  string `json:"error"` // comparison row
		Result *body  // scenario row
		Report *body  `json:"report"` // comparison row
	}
	if err := json.Unmarshal(raw, &row); err != nil || row.Err != "" || row.Error != "" {
		return VerdictFacts{Failed: true}
	}
	b := row.Result
	if b == nil {
		b = row.Report
	}
	if b == nil {
		return VerdictFacts{Failed: true}
	}
	return VerdictFacts{Detected: len(b.Detections) > 0, TrojanLikely: b.TrojanLikely}
}

func (r ScenarioResult) verdictFacts() VerdictFacts {
	if r.Err != nil || r.Result == nil {
		return VerdictFacts{Failed: true}
	}
	return VerdictFacts{Detected: len(r.Result.Detections) > 0, TrojanLikely: r.Result.TrojanLikely}
}

func (c CompareResult) verdictFacts() VerdictFacts {
	if c.Err != nil || c.Error != "" || c.Report == nil {
		return VerdictFacts{Failed: true}
	}
	return VerdictFacts{TrojanLikely: c.Report.TrojanLikely}
}

// RowVerdict is the one verdict rule. It decides a scenario's verdict
// from its row and, when the scenario is the suspect of any comparison,
// its first comparison in spec order (first; nil when there is none):
//
//   - a row with an error (or no result) is Errored;
//   - live detections decide by the row's TrojanLikely flag;
//   - otherwise the first comparison decides: Errored if it failed,
//     else by its report's TrojanLikely flag;
//   - otherwise the row's own TrojanLikely flag makes it Trojan;
//   - otherwise the verdict is Unknown.
//
// The local executor's scheduler feed, the farm coordinator, and the
// per-scenario verdict of reports and progress lines (TROJAN LIKELY /
// clean / -, decided with no comparison) all call it.
func RowVerdict(row VerdictFacts, first *VerdictFacts) sched.Verdict {
	if row.Failed {
		return sched.Errored
	}
	if !row.Detected && first != nil {
		if first.Failed {
			return sched.Errored
		}
		row = *first
	} else if !row.Detected && !row.TrojanLikely {
		return sched.Unknown
	}
	if row.TrojanLikely {
		return sched.Trojan
	}
	return sched.Clean
}

// ComparesBySuspect indexes the suite's comparisons by suspect: each
// scenario maps to the indices into Compare of the comparisons it is the
// suspect of, in spec order. Build it once per run: RowVerdict reads a
// scenario's first comparison, and SkipRows covers all of them.
func (s *SuiteSpec) ComparesBySuspect() map[string][]int {
	out := make(map[string][]int)
	for i, cmp := range s.Compare {
		out[cmp.Suspect] = append(out[cmp.Suspect], i)
	}
	return out
}

// SkipRows builds the rows of a scenario the scheduler retired: its skip
// row and one skip-error row for each comparison in cmps (indices into
// Compare of the comparisons it is the suspect of). Goldens are extras,
// which are never retired, so only a comparison's suspect side can be
// skipped. Every row carries the canonical SkipMessage text.
func (s *SuiteSpec) SkipRows(sc ScenarioSpec, reason string, cmps []int) (ScenarioResult, []CompareResult) {
	msg := SkipMessage(reason)
	row := ScenarioResult{Name: sc.Name, Seed: sc.EffectiveSeed(s.BaseSeed), Err: errors.New(msg)}
	rows := make([]CompareResult, len(cmps))
	for i, ix := range cmps {
		cmp := s.Compare[ix]
		rows[i] = CompareResult{
			Golden:     cmp.Golden,
			Suspect:    cmp.Suspect,
			GoldenTap:  cmp.GoldenTap,
			SuspectTap: cmp.SuspectTap,
			Err:        row.Err,
			Error:      msg,
		}
	}
	return row, rows
}

// RunSuiteProgressive is the one suite executor. Rounds of scenarios
// chosen by sched run as ordinary campaign batches, each wave-ordered so
// golden references (at any chain depth) run before the scenarios that
// use them; verdicts feed back; retired scenarios become synthesized
// skip rows in the report and the sinks. Afterwards the Compare entries
// replay captures through registry-built detectors. Results keep spec
// order. With an unlimited budget and no early stop the executed set is
// the whole suite and the report is byte-identical to RunSuite's, which
// is this executor under the flat schedule. The receiver's
// Workers/Budget act as defaults; the suite's own values win when set.
func (c Campaign) RunSuiteProgressive(runCtx context.Context, suite *SuiteSpec, layout *sched.Grid, cfg sched.Config) (*SuiteReport, SweepStats, error) {
	if err := suite.Validate(); err != nil {
		return nil, SweepStats{}, err
	}
	if err := ValidateProgressive(suite, layout); err != nil {
		return nil, SweepStats{}, err
	}
	sch, err := sched.New(layout, cfg)
	if err != nil {
		return nil, SweepStats{}, err
	}
	if suite.Workers != 0 {
		c.Workers = suite.Workers
	}
	if suite.Budget != 0 {
		c.Budget = suite.Budget
	}

	specs := make(map[string]ScenarioSpec, len(suite.Scenarios))
	for _, sc := range suite.Scenarios {
		specs[sc.Name] = sc
	}
	bySuspect := suite.ComparesBySuspect()

	recordings := make(map[string]*capture.Recording)
	results := make(map[string]ScenarioResult, len(suite.Scenarios))
	ctx := SpecContext{
		BaseSeed: suite.BaseSeed,
		Dir:      suite.dir,
		Goldens:  func(name string) *capture.Recording { return recordings[name] },
	}

	// Comparisons run once, memoized by spec index: a scenario's first
	// comparison as soon as its verdict is needed, the rest for the
	// report. Goldens are extras, so they ran in round 1.
	compares := make([]*CompareResult, len(suite.Compare))
	compare := func(i int) *CompareResult {
		if compares[i] == nil {
			cr := runCompare(suite.Compare[i], results)
			compares[i] = &cr
		}
		return compares[i]
	}
	verdict := func(name string) sched.Verdict {
		var first *VerdictFacts
		if ix := bySuspect[name]; len(ix) > 0 {
			f := compare(ix[0]).verdictFacts()
			first = &f
		}
		return RowVerdict(results[name].verdictFacts(), first)
	}

	// A sink failure does not stop the suite: a wave's results are
	// complete (Run surfaces sink errors only after every scenario
	// finished), so later waves and the comparisons still run; the first
	// sink error is returned at the end with the full report.
	var sinkFailure error
	noteSink := func(err error) {
		if sinkFailure == nil && err != nil {
			sinkFailure = err
		}
	}
	runWave := func(specs []ScenarioSpec) error {
		res, err := c.RunSpecs(runCtx, ctx, specs)
		var se *SinkError
		if errors.As(err, &se) {
			noteSink(err)
			err = nil
		}
		for _, r := range res {
			if r.Name == "" {
				continue
			}
			results[r.Name] = r
			if r.Err == nil && r.Result != nil && r.Result.Recording != nil {
				recordings[r.Name] = r.Result.Recording
			}
		}
		return err
	}
	// Skip rows go through the campaign's sinks too, so JSONL streams
	// and journals stay complete records of the sweep.
	emitSkip := func(sk sched.Skip) {
		sc, ok := specs[sk.Name]
		if !ok {
			return
		}
		row, cmpRows := suite.SkipRows(sc, sk.Reason, bySuspect[sk.Name])
		results[sk.Name] = row
		for i, ix := range bySuspect[sk.Name] {
			compares[ix] = &cmpRows[i]
		}
		for _, s := range c.Sinks {
			if err := s.Emit(row); err != nil {
				noteSink(&SinkError{Err: err})
			}
		}
	}

	// finish assembles the results in spec order — partial when err
	// stopped the run early — and returns the report with err.
	report := &SuiteReport{Suite: suite.Name, BaseSeed: suite.BaseSeed}
	finish := func(err error) (*SuiteReport, SweepStats, error) {
		report.Results = make([]ScenarioResult, 0, len(suite.Scenarios))
		for _, sc := range suite.Scenarios {
			r, ok := results[sc.Name]
			if !ok {
				r = ScenarioResult{Name: sc.Name, Seed: sc.EffectiveSeed(suite.BaseSeed)}
			}
			report.Results = append(report.Results, r)
		}
		return report, SweepStats{Stats: sch.Stats()}, err
	}

	for {
		round, err := sch.NextRound()
		if err != nil {
			return finish(fmt.Errorf("offramps: suite %q: %w", suite.Name, err))
		}
		// Retirements decided while dealing this round (early stop,
		// budget exhaustion) synthesize immediately, so streams carry
		// skips in decision order.
		for _, sk := range sch.TakeRetired() {
			emitSkip(sk)
		}
		if len(round) == 0 {
			break
		}

		remaining := make([]ScenarioSpec, 0, len(round))
		for _, name := range round {
			sc, ok := specs[name]
			if !ok {
				return finish(fmt.Errorf("offramps: suite %q: layout names scenario %q the suite does not have", suite.Name, name))
			}
			remaining = append(remaining, sc)
		}
		for len(remaining) > 0 {
			var wave, deferred []ScenarioSpec
			for _, sc := range remaining {
				ready := sc.Detector == nil || sc.Detector.Golden == ""
				if !ready {
					_, ready = results[sc.Detector.Golden]
				}
				if ready {
					wave = append(wave, sc)
				} else {
					deferred = append(deferred, sc)
				}
			}
			if len(wave) == 0 {
				// Unreachable after Validate's cycle check; guard anyway so
				// a future bug cannot loop forever.
				return finish(fmt.Errorf("offramps: suite %q: unresolvable golden references", suite.Name))
			}
			if err := runWave(wave); err != nil {
				return finish(err)
			}
			remaining = deferred
		}
		for _, name := range round {
			if err := sch.Observe(name, verdict(name)); err != nil {
				return finish(fmt.Errorf("offramps: suite %q: %w", suite.Name, err))
			}
		}
	}
	for i := range suite.Compare {
		report.Comparisons = append(report.Comparisons, *compare(i))
	}
	return finish(sinkFailure)
}
