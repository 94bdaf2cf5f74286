package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"offramps"
	"offramps/internal/detect"
	"offramps/internal/farm"
	"offramps/internal/goldenstore"
	"offramps/internal/sched"
)

// Paths of the committed inputs, relative to the checkout root.
const (
	tableIIGrid = "examples/specs/grid_tableii.json"
	sweepGrid   = "examples/specs/grid_tableii_sweep.json"
	tableIISum  = "ci/grid_tableii.sha256"
)

// The farm-progressive sweep's scheduler settings and the coordinator
// CLI's defaults.
var (
	farmSched  = sched.Config{Budget: 14, EarlyStopK: 2}
	farmConfig = farm.Config{TTL: 30 * time.Second, SyncEvery: 1, MaxStrikes: 3}
)

// The sweep-fingerprint grid: detector-limit variants × seeds over the
// test part, the BenchmarkCampaignWide shape.
const fpVariants, fpSeeds = 8, 13

// workload is one benchmark workload.
type workload struct {
	name  string
	setup func(ctx context.Context, cfg config, dir string) (instance, error)
}

var workloads = []workload{
	{"tableii-cold", func(ctx context.Context, cfg config, dir string) (instance, error) {
		return setupTable(ctx, cfg, dir, false)
	}},
	{"tableii-warm", func(ctx context.Context, cfg config, dir string) (instance, error) {
		return setupTable(ctx, cfg, dir, true)
	}},
	{"sweep-fingerprint", setupFingerprint},
	{"farm-progressive", setupFarm},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// loadGrid loads and expands a committed grid at the run's base seed.
func loadGrid(cfg config, rel string) (*offramps.SuiteSpec, *sched.Grid, error) {
	spec, layout, err := offramps.LoadSuiteOrGridLayout(filepath.Join(cfg.root, rel), true)
	if err != nil {
		return nil, nil, err
	}
	spec.BaseSeed = cfg.seed
	return spec, layout, nil
}

// specDir anchors the grids' relative program references (both grids
// live there).
func specDir(cfg config) string { return filepath.Dir(filepath.Join(cfg.root, tableIIGrid)) }

// compileCheck compiles every scenario once — resolving (slicing and
// tampering) each program — so a broken spec fails in set-up.
func compileCheck(cfg config, spec *offramps.SuiteSpec) error {
	_, err := offramps.CompileSpecs(offramps.SpecContext{BaseSeed: spec.BaseSeed, Dir: specDir(cfg)}, spec.Scenarios)
	return err
}

// reportDoc is the document `suite -json` writes.
type reportDoc struct {
	Suites []*offramps.SuiteReport `json:"suites"`
}

func encodeDoc(doc any) ([]byte, error) {
	var buf bytes.Buffer
	if err := offramps.EncodeReport(&buf, doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// gridPass is one Table II grid run the way `suite -golden-store dir
// -jsonl file -json out grid_tableii.json` runs it.
type gridPass struct {
	doc   []byte
	cache *offramps.GoldenCache
	store *goldenstore.Store
	stats passStats
}

func runGrid(ctx context.Context, spec *offramps.SuiteSpec, storeDir, jsonlPath string, nworkers int) (gridPass, error) {
	var out gridPass
	start := time.Now()
	store, err := goldenstore.Open(storeDir)
	if err != nil {
		return out, err
	}
	cache := offramps.NewGoldenCache()
	cache.AttachStore(store)
	f, err := os.Create(jsonlPath)
	if err != nil {
		return out, err
	}
	defer f.Close()
	sink := offramps.NewJSONLSink(f)
	sink.Label = spec.Name
	c := offramps.Campaign{Workers: nworkers, Cache: cache, Sinks: []offramps.ResultSink{sink}}
	rep, err := c.RunSuite(ctx, spec)
	sinkErrs := 0
	if err != nil {
		if !errors.As(err, new(*offramps.SinkError)) {
			return out, err
		}
		sinkErrs++
	}
	for _, cmp := range rep.Comparisons {
		if err := sink.EmitCompare(cmp); err != nil {
			sinkErrs++
		}
	}
	if err := f.Close(); err != nil {
		sinkErrs++
	}
	doc, err := encodeDoc(reportDoc{Suites: []*offramps.SuiteReport{rep}})
	if err != nil {
		return out, err
	}
	out = gridPass{doc: doc, cache: cache, store: store}
	out.stats = reportStats(rep)
	out.stats.failed += sinkErrs
	out.stats.wall = time.Since(start)
	return out, nil
}

// reportStats counts a suite report's rows, failures and detections.
func reportStats(rep *offramps.SuiteReport) passStats {
	var ps passStats
	for _, r := range rep.Results {
		ps.rows++
		if r.Err != nil && !offramps.IsSkippedResult(r.Err.Error()) {
			ps.failed++
		}
	}
	for _, c := range rep.Comparisons {
		if c.Err != nil {
			if !offramps.IsSkippedResult(c.Err.Error()) {
				ps.failed++
			}
			continue
		}
		ps.countVerdict(c.Suspect, c.Report.TrojanLikely)
	}
	return ps
}

// countVerdict scores one comparison: a Flaw3D-tampered suspect should
// be flagged, any other suspect should not.
func (ps *passStats) countVerdict(suspect string, flagged bool) {
	if strings.HasPrefix(suspect, "flaw3d") {
		ps.positives++
		if flagged {
			ps.detected++
		}
		return
	}
	ps.negatives++
	if flagged {
		ps.falsePos++
	}
}

// tableInstance runs the Table II grid: cold (a fresh, empty store per
// pass) or warm (a store filled in set-up, a fresh cache per pass).
type tableInstance struct {
	cfg      config
	dir      string
	spec     *offramps.SuiteSpec
	warm     bool
	storeDir string // warm: the filled store
	want     []byte // warm: the fill's report; cold: the first pass's
}

func setupTable(ctx context.Context, cfg config, dir string, warm bool) (instance, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	spec, _, err := loadGrid(cfg, tableIIGrid)
	if err != nil {
		return nil, err
	}
	if err := compileCheck(cfg, spec); err != nil {
		return nil, err
	}
	t := &tableInstance{cfg: cfg, dir: dir, spec: spec, warm: warm}
	if warm {
		t.storeDir = filepath.Join(dir, "store")
		fill, err := runGrid(ctx, spec, t.storeDir, filepath.Join(dir, "fill.jsonl"), workers)
		if err != nil {
			return nil, fmt.Errorf("warm fill: %w", err)
		}
		if got := fill.cache.Sims(); got != uint64(fill.stats.rows) {
			return nil, checkFailed("warm fill ran %d simulations for %d rows", got, fill.stats.rows)
		}
		t.want = fill.doc
	}
	return t, nil
}

func (t *tableInstance) pass(ctx context.Context, i int) (passStats, error) {
	storeDir := t.storeDir
	if !t.warm {
		storeDir = filepath.Join(t.dir, fmt.Sprintf("cold-%d", i))
		defer os.RemoveAll(storeDir)
	}
	g, err := runGrid(ctx, t.spec, storeDir, filepath.Join(t.dir, "rows.jsonl"), workers)
	if err != nil {
		return g.stats, err
	}
	// Tier guard: a cold pass simulates every row, a warm pass none.
	wantSims := uint64(g.stats.rows)
	if t.warm {
		wantSims = 0
	}
	if got := g.cache.Sims(); got != wantSims {
		return g.stats, checkFailed("golden tier changed: %d simulations for %d rows, want %d", got, g.stats.rows, wantSims)
	}
	if t.want == nil {
		t.want = g.doc
	}
	if !bytes.Equal(g.doc, t.want) {
		what := "the first pass's"
		if t.warm {
			what = "its cold fill's"
		}
		return g.stats, checkFailed("report of pass %d differs from %s", i, what)
	}
	return g.stats, nil
}

// verify holds a cold Table II run at base seed 1 to the committed CI
// checksum.
func (t *tableInstance) verify(ctx context.Context) error {
	if t.warm {
		return nil
	}
	doc := t.want
	if t.cfg.seed != 1 {
		spec := *t.spec
		spec.BaseSeed = 1
		dir := filepath.Join(t.dir, "seed1")
		defer os.RemoveAll(dir)
		g, err := runGrid(ctx, &spec, dir, filepath.Join(t.dir, "seed1.jsonl"), workers)
		if err != nil {
			return err
		}
		doc = g.doc
	}
	return checkSum(t.cfg, doc)
}

// checkSum compares a report against ci/grid_tableii.sha256.
func checkSum(cfg config, doc []byte) error {
	data, err := os.ReadFile(filepath.Join(cfg.root, tableIISum))
	if err != nil {
		return err
	}
	want, _, _ := strings.Cut(strings.TrimSpace(string(data)), " ")
	sum := sha256.Sum256(doc)
	if got := hex.EncodeToString(sum[:]); got != want {
		return checkFailed("Table II report at base seed 1 hashes to %s, %s says %s", got, tableIISum, want)
	}
	return nil
}

// fingerprintScenarios builds the detector-threshold sweep: golden-free
// rule-engine limit variants × seeds over the test part.
func fingerprintScenarios(seed uint64) ([]offramps.Scenario, error) {
	prog, err := offramps.TestPart()
	if err != nil {
		return nil, err
	}
	var scens []offramps.Scenario
	for v := 0; v < fpVariants; v++ {
		lim := variantLimits(v)
		for s := 0; s < fpSeeds; s++ {
			scens = append(scens, offramps.Scenario{
				Name:     fmt.Sprintf("v%d-s%d", v, s+1),
				Program:  prog,
				Seed:     fpSeed(seed, s),
				Detector: func() (detect.Detector, error) { return detect.NewRuleEngine(lim) },
				Policy:   offramps.FlagOnly,
			})
		}
	}
	return scens, nil
}

// variantLimits loosens the golden-free limits step by step, as a
// threshold sweep does.
func variantLimits(v int) detect.Limits {
	lim := detect.DefaultLimits()
	lim.MaxStepsPerWindow += int32(v) * 96
	lim.MaxStationaryExtrude += int32(v) * 8
	return lim
}

// fpSeed is the s-th print seed of the sweep: base seed n covers seeds
// 13n+1 … 13n+13, so base seed 0 is BenchmarkCampaignWide's 1 … 13.
func fpSeed(seed uint64, s int) uint64 { return seed*fpSeeds + uint64(s) + 1 }

type fingerprintInstance struct {
	scens    []offramps.Scenario
	verdicts []string // the first pass's, per scenario
}

func setupFingerprint(_ context.Context, cfg config, _ string) (instance, error) {
	scens, err := fingerprintScenarios(cfg.seed)
	if err != nil {
		return nil, err
	}
	return &fingerprintInstance{scens: scens}, nil
}

// verdictOf is what a fingerprint row must repeat on every pass.
func verdictOf(r offramps.ScenarioResult) string {
	if r.Err != nil || r.Result == nil || r.Result.Fingerprint == nil || len(r.Result.Detections) != 1 {
		return "error"
	}
	d := r.Result.Detections[0]
	return fmt.Sprintf("%v/%d/%x", d.TrojanLikely, len(d.Violations), r.Result.Fingerprint.Digest)
}

func (f *fingerprintInstance) pass(ctx context.Context, i int) (passStats, error) {
	start := time.Now()
	c := offramps.Campaign{Workers: workers, CaptureMode: offramps.CaptureFingerprint}
	results, err := c.Run(ctx, f.scens)
	ps := passStats{wall: time.Since(start)}
	if err != nil {
		return ps, err
	}
	verdicts := make([]string, len(results))
	for k, r := range results {
		ps.rows++
		verdicts[k] = verdictOf(r)
		if verdicts[k] == "error" {
			ps.failed++
			continue
		}
		ps.countVerdict(r.Name, r.Result.TrojanLikely)
	}
	if f.verdicts == nil {
		f.verdicts = verdicts
	}
	for k := range verdicts {
		if verdicts[k] != f.verdicts[k] {
			return ps, checkFailed("pass %d: %s verdict %s, first pass %s", i, results[k].Name, verdicts[k], f.verdicts[k])
		}
	}
	return ps, nil
}

func (f *fingerprintInstance) verify(context.Context) error { return nil }

// farmInstance runs progressive farm sweeps over a warm shared store.
type farmInstance struct {
	cfg    config
	dir    string
	spec   *offramps.SuiteSpec
	layout *sched.Grid
	store  *goldenstore.Store
	want   []byte // the first sweep's stitched report
}

func setupFarm(ctx context.Context, cfg config, dir string) (instance, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	spec, layout, err := loadGrid(cfg, sweepGrid)
	if err != nil {
		return nil, err
	}
	if err := compileCheck(cfg, spec); err != nil {
		return nil, err
	}
	fill, err := runGrid(ctx, spec, filepath.Join(dir, "store"), filepath.Join(dir, "fill.jsonl"), workers)
	if err != nil {
		return nil, fmt.Errorf("warm fill: %w", err)
	}
	return &farmInstance{cfg: cfg, dir: dir, spec: spec, layout: layout, store: fill.store}, nil
}

// sweepResult is one finished farm sweep.
type sweepResult struct {
	doc     []byte
	stats   offramps.SweepStats
	caches  []*offramps.GoldenCache
	journal string
	ps      passStats
}

// sweep runs one progressive sweep: a coordinator on a loopback server
// and two closed-loop workers with fresh caches over the shared store.
// The sweep's time runs from coordinator start to the encoded stitched
// report. Once the coordinator is done the idle workers are stopped
// (rather than left to poll for "done") and the server is shut down
// before stitching, as the coordinator command does: Done can close
// while the last completion's rows are still being recorded, and the
// shutdown waits for that handler. transport, when non-nil, wraps each
// worker's HTTP transport.
func (f *farmInstance) sweep(ctx context.Context, i int, transport func(worker string) http.RoundTripper) (sweepResult, error) {
	out := sweepResult{journal: filepath.Join(f.dir, fmt.Sprintf("journal-%d.jsonl", i))}
	start := time.Now()
	cfg := farmConfig
	cfg.Journal = out.journal
	cfg.Progressive = &farm.Progressive{Layout: f.layout, Sched: farmSched}
	co, err := farm.NewCoordinator(f.spec, cfg)
	if err != nil {
		return out, err
	}
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	wctx, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	werrs := make([]error, workers)
	for w := 0; w < workers; w++ {
		cache := offramps.NewGoldenCache()
		cache.AttachStore(f.store)
		out.caches = append(out.caches, cache)
		name := fmt.Sprintf("w%d", w+1)
		client := &farm.Client{Base: srv.URL}
		if transport != nil {
			client.HTTP = &http.Client{Transport: transport(name)}
		}
		wk := &farm.Worker{Client: client, Name: name, Dir: specDir(f.cfg), Cache: cache}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, werrs[w] = wk.Run(wctx)
		}(w)
	}
	stopWorkers := func() error {
		stop()
		wg.Wait()
		srv.Close()
		for _, err := range werrs {
			if err != nil && !errors.Is(err, context.Canceled) {
				return fmt.Errorf("farm worker: %w", err)
			}
		}
		return nil
	}

	sweepTimeout := time.NewTimer(60 * time.Second)
	defer sweepTimeout.Stop()
	select {
	case <-co.Done():
	case <-sweepTimeout.C:
		stopWorkers()
		return out, errors.New("farm sweep did not settle within 60s")
	case <-ctx.Done():
		stopWorkers()
		return out, ctx.Err()
	}
	if err := stopWorkers(); err != nil {
		return out, err
	}
	rep, err := co.Report()
	if err != nil {
		return out, err
	}
	if out.doc, err = encodeDoc(offramps.RawReportDoc{Suites: []offramps.RawSuiteReport{*rep}}); err != nil {
		return out, err
	}
	out.ps.wall = time.Since(start)
	if err := co.Close(); err != nil {
		return out, err
	}
	out.stats, _ = co.SweepStats()
	out.ps.rows = out.stats.Executed
	out.ps.failed = len(co.Quarantined())
	return out, rawStats(rep, &out.ps)
}

// rawStats scores a stitched report's rows: errored rows (other than
// progressive skips) are failures; executed comparisons are scored.
func rawStats(rep *offramps.RawSuiteReport, ps *passStats) error {
	for _, raw := range rep.Results {
		var head struct{ Err string }
		if err := json.Unmarshal(raw, &head); err != nil {
			return err
		}
		if head.Err != "" && !offramps.IsSkippedResult(head.Err) {
			ps.failed++
		}
	}
	for _, raw := range rep.Comparisons {
		var c struct {
			Suspect string `json:"suspect"`
			Error   string `json:"error"`
			Report  *struct{ TrojanLikely bool }
		}
		if err := json.Unmarshal(raw, &c); err != nil {
			return err
		}
		switch {
		case offramps.IsSkippedResult(c.Error):
		case c.Error != "" || c.Report == nil:
			ps.failed++
		default:
			ps.countVerdict(c.Suspect, c.Report.TrojanLikely)
		}
	}
	return nil
}

func (f *farmInstance) pass(ctx context.Context, i int) (passStats, error) {
	s, err := f.sweep(ctx, i, nil)
	defer os.Remove(s.journal)
	if err != nil {
		return s.ps, err
	}
	// Tier guard: every scenario of the sweep is a store hit.
	for _, c := range s.caches {
		if n := c.Sims(); n != 0 {
			return s.ps, checkFailed("golden tier changed: a farm worker ran %d simulations over the warm store", n)
		}
	}
	if f.want == nil {
		f.want = s.doc
	}
	if !bytes.Equal(s.doc, f.want) {
		return s.ps, checkFailed("stitched report of sweep %d differs from the first sweep's", i)
	}
	return s.ps, nil
}

// verify holds the farm's stitched report to a local progressive run
// with the same budget and early stop.
func (f *farmInstance) verify(ctx context.Context) error {
	cache := offramps.NewGoldenCache()
	cache.AttachStore(f.store)
	rep, _, err := offramps.Campaign{Workers: workers, Cache: cache}.RunSuiteProgressive(ctx, f.spec, f.layout, farmSched)
	if err != nil {
		return err
	}
	local, err := encodeDoc(reportDoc{Suites: []*offramps.SuiteReport{rep}})
	if err != nil {
		return err
	}
	if !bytes.Equal(local, f.want) {
		return checkFailed("farm report differs from the local RunSuiteProgressive report")
	}
	return nil
}
