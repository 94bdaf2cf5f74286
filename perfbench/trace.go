package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"offramps"
	"offramps/internal/capture"
	"offramps/internal/detect"
	"offramps/internal/farm"
	"offramps/internal/firmware"
	"offramps/internal/goldenstore"
	"offramps/internal/sched"
	"offramps/perfbench/spans"
)

// The traced layer run replays each workload's work serially — one call
// at a time into the layers' public functions, in the order the
// workload makes them — with a span around every call. Every traced run
// replays all four workloads, because every run must report every
// per-layer metric and each layer is measured on the workload that
// exercises it (see README.md for the mapping). Each replay also times
// the untraced serial run of the same work; the gap is the tracing
// overhead.
//
// Below Testbed.Run only counters are available (events, windows,
// simulated time, allocation): splitting a print's time among sim,
// firmware, fpga and printer needs spans inside the program.

// farmTraceSweeps is how many farm sweeps the traced run makes, untraced
// and traced each: enough round trips for a p90 with ten samples past it.
const farmTraceSweeps = 10

// warmGetRounds repeats the store-read probe so goldenstore.get_us_p90
// rests on at least ten samples past it.
const warmGetRounds = 10

type tracer struct {
	cfg    config
	rec    *spans.Recorder
	rows   int
	failed int

	// entries are the Table II store entries by scenario seed, from the
	// warm replay's fill: the cold replay writes them back to an empty
	// store, as a cold run does after each simulation.
	entries map[uint64]storeEntry
	// testPart is the golden Table II print's capture (the test part at
	// the base seed), from the cold replay: the stream the detector
	// observe probe replays.
	testPart *capture.Recording
}

type storeEntry struct {
	key     goldenstore.Key
	payload []byte
}

func traceRun(ctx context.Context, cfg config, env map[string]string, stdout io.Writer) (result, error) {
	t := &tracer{cfg: cfg, rec: spans.NewRecorder()}
	res := result{Metrics: map[string]metric{}}
	for _, step := range []struct {
		name string
		fn   func(context.Context) error
	}{
		{"tableii-warm", t.warm},
		{"tableii-cold", t.cold},
		{"sweep-fingerprint", t.fingerprint},
		{"farm-progressive", t.farm},
	} {
		if err := step.fn(ctx); err != nil {
			return res, fmt.Errorf("traced %s: %w", step.name, err)
		}
	}

	all := t.rec.Spans()
	dir := filepath.Join(cfg.root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return res, err
	}
	if err := spans.Write(f, spans.Header{Workload: cfg.workload, Seed: cfg.seed, Env: env}, all); err != nil {
		f.Close()
		return res, err
	}
	if err := f.Close(); err != nil {
		return res, err
	}
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(all), path)
	for _, o := range spans.Overheads(all) {
		fmt.Fprintf(stdout, "tracing overhead %s: traced %v, untraced %v (%+.1f%%)\n",
			o.Workload, o.Traced.Round(time.Microsecond), o.Untraced.Round(time.Microsecond), 100*o.Frac)
	}

	res.Attempted, res.Failed = max(t.rows, 1), t.failed
	res.Metrics, err = metricsOf(spans.Summarize(all), perLayerUnit)
	res.Correct = err == nil && t.failed == 0
	return res, err
}

// tracedSpec loads a grid as a workload's set-up does, with spans
// around the expansion and around each scenario's program resolution
// and compilation.
func (t *tracer) tracedSpec(rel string) (*offramps.SuiteSpec, *sched.Grid, error) {
	var spec *offramps.SuiteSpec
	var layout *sched.Grid
	err := t.rec.Do(0, "spec.expand", rel, func() (map[string]float64, error) {
		var err error
		spec, layout, err = loadGrid(t.cfg, rel)
		return nil, err
	})
	if err != nil {
		return nil, nil, err
	}
	for _, sc := range spec.Scenarios {
		if err := t.rec.Do(0, "spec.resolve", sc.Name, func() (map[string]float64, error) {
			_, err := sc.Program.Resolve(specDir(t.cfg))
			return nil, err
		}); err != nil {
			return nil, nil, err
		}
		if _, err := t.compile(0, spec, sc); err != nil {
			return nil, nil, err
		}
	}
	return spec, layout, nil
}

// compile turns one scenario spec into a runnable scenario (resolving
// its program) under a span.
func (t *tracer) compile(parent int64, spec *offramps.SuiteSpec, sc offramps.ScenarioSpec) (offramps.Scenario, error) {
	var s offramps.Scenario
	err := t.rec.Do(parent, "spec.compile", sc.Name, func() (map[string]float64, error) {
		var err error
		s, err = sc.Compile(offramps.SpecContext{BaseSeed: spec.BaseSeed, Dir: specDir(t.cfg)})
		return nil, err
	})
	return s, err
}

// emit streams one row to a JSONL sink under a span.
func (t *tracer) emit(parent int64, sink *offramps.JSONLSink, r offramps.ScenarioResult) error {
	t.rows++
	return t.rec.Do(parent, "sink.emit", r.Name, func() (map[string]float64, error) { return nil, sink.Emit(r) })
}

// compare replays every comparison of the suite through a golden
// comparator, as RunSuite does, and streams each to the sink.
func (t *tracer) compare(parent int64, spec *offramps.SuiteSpec, results map[string]offramps.ScenarioResult, sink *offramps.JSONLSink) ([]offramps.CompareResult, error) {
	var out []offramps.CompareResult
	for _, cmp := range spec.Compare {
		golden, suspect := results[cmp.Golden], results[cmp.Suspect]
		if golden.Result == nil || suspect.Result == nil || golden.Result.Recording == nil || suspect.Result.Recording == nil {
			return nil, fmt.Errorf("compare %s vs %s: missing capture", cmp.Golden, cmp.Suspect)
		}
		c := offramps.CompareResult{Golden: cmp.Golden, Suspect: cmp.Suspect}
		err := t.rec.Do(parent, "detect.compare", cmp.Suspect, func() (map[string]float64, error) {
			d, err := detect.Build("golden-comparator", nil, detect.BuildEnv{Golden: golden.Result.Recording})
			if err != nil {
				return nil, err
			}
			c.Report, err = detect.Replay(suspect.Result.Recording, d)
			return map[string]float64{"tx": float64(suspect.Result.Recording.Len())}, err
		})
		if err != nil {
			return nil, err
		}
		if err := t.rec.Do(parent, "sink.emit", cmp.Suspect, func() (map[string]float64, error) { return nil, sink.EmitCompare(c) }); err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// encode writes the suite report document under a span.
func (t *tracer) encode(parent int64, rep *offramps.SuiteReport) ([]byte, error) {
	var doc []byte
	err := t.rec.Do(parent, "sink.encode", rep.Suite, func() (map[string]float64, error) {
		var err error
		doc, err = encodeDoc(reportDoc{Suites: []*offramps.SuiteReport{rep}})
		return map[string]float64{"bytes": float64(len(doc))}, err
	})
	return doc, err
}

// testbedRun simulates one scenario through a one-scenario campaign
// without a golden cache — the campaign's plan-sharing, pooled-core
// path — and records the testbed's counters on the span.
func (t *tracer) testbedRun(ctx context.Context, parent int64, s offramps.Scenario, mode offramps.CaptureMode) (offramps.ScenarioResult, error) {
	var tb *offramps.Testbed
	s.Prepare = func(b *offramps.Testbed) error { tb = b; return nil }
	var r offramps.ScenarioResult
	err := t.rec.Do(parent, "testbed.run", s.Name, func() (map[string]float64, error) {
		a0 := totalAlloc()
		res, err := offramps.Campaign{Workers: 1, CaptureMode: mode}.Run(ctx, []offramps.Scenario{s})
		a1 := totalAlloc()
		if err != nil {
			return nil, err
		}
		if r = res[0]; r.Err != nil {
			return nil, r.Err
		}
		attrs := map[string]float64{
			"events":      float64(tb.Engine.Executed()),
			"sim_s":       r.Result.Duration.Seconds(),
			"alloc_bytes": float64(a1 - a0),
		}
		if tb.Board != nil {
			attrs["windows"] = float64(tb.Board.Windows())
		}
		return attrs, nil
	})
	return r, err
}

// root opens a workload's replay span; the returned func closes it with
// the untraced serial run's wall time and reports the traced wall time.
func (t *tracer) root(workload string) (int64, func(untraced time.Duration) time.Duration) {
	start := time.Now()
	id := t.rec.Begin(0, "campaign.replay", workload)
	return id, func(untraced time.Duration) time.Duration {
		t.rec.End(id, map[string]float64{"untraced_ns": float64(untraced)})
		return time.Since(start)
	}
}

// warm replays a tableii-warm pass: a fresh cache over the filled
// store, every golden a store hit.
func (t *tracer) warm(ctx context.Context) error {
	dir := filepath.Join(t.cfg.work, "trace-warm")
	spec, _, err := t.tracedSpec(tableIIGrid)
	if err != nil {
		return err
	}
	storeDir := filepath.Join(dir, "store")
	fill, err := runGrid(ctx, spec, storeDir, filepath.Join(dir, "fill.jsonl"), workers)
	if err != nil {
		return err
	}
	keys, err := fill.store.Keys()
	if err != nil {
		return err
	}
	t.entries = make(map[uint64]storeEntry, len(keys))
	for _, k := range keys {
		payload, ok := fill.store.Get(k)
		if !ok {
			return fmt.Errorf("filled store lost entry %x", k.Program[:4])
		}
		t.entries[k.Seed] = storeEntry{key: k, payload: payload}
	}
	var untraced []float64
	for i := 0; i < 3; i++ {
		g, err := runGrid(ctx, spec, storeDir, filepath.Join(dir, "rows.jsonl"), 1)
		if err != nil {
			return err
		}
		if !bytes.Equal(g.doc, fill.doc) {
			return checkFailed("untraced serial warm pass differs from its fill")
		}
		untraced = append(untraced, float64(g.stats.wall))
	}

	root, end := t.root("tableii-warm")
	var store *goldenstore.Store
	if err := t.rec.Do(root, "goldenstore.open", spec.Name, func() (map[string]float64, error) {
		var err error
		store, err = goldenstore.Open(storeDir)
		return nil, err
	}); err != nil {
		return err
	}
	cache := offramps.NewGoldenCache()
	cache.AttachStore(store)
	f, err := os.Create(filepath.Join(dir, "traced.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	sink := offramps.NewJSONLSink(f)
	sink.Label = spec.Name
	rep := &offramps.SuiteReport{Suite: spec.Name, BaseSeed: spec.BaseSeed}
	results := make(map[string]offramps.ScenarioResult)
	for _, sc := range spec.Scenarios {
		s, err := t.compile(root, spec, sc)
		if err != nil {
			return err
		}
		var r offramps.ScenarioResult
		if err := t.rec.Do(root, "golden.lookup", sc.Name, func() (map[string]float64, error) {
			res, err := offramps.Campaign{Workers: 1, Cache: cache}.Run(ctx, []offramps.Scenario{s})
			if err != nil {
				return nil, err
			}
			r = res[0]
			return nil, r.Err
		}); err != nil {
			return err
		}
		if err := t.emit(root, sink, r); err != nil {
			return err
		}
		results[r.Name] = r
		rep.Results = append(rep.Results, r)
	}
	if rep.Comparisons, err = t.compare(root, spec, results, sink); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	doc, err := t.encode(root, rep)
	if err != nil {
		return err
	}
	end(time.Duration(spans.Quantile(untraced, 0.5)))
	if !bytes.Equal(doc, fill.doc) {
		return checkFailed("traced warm replay's report differs from the untraced run's")
	}
	if n := cache.Sims(); n != 0 {
		return checkFailed("golden tier changed: warm replay ran %d simulations", n)
	}
	t.countTiers(cache)

	// The store-read probe: every entry, read back warmGetRounds times.
	for r := 0; r < warmGetRounds; r++ {
		for _, sc := range spec.Scenarios {
			e, ok := t.entries[sc.EffectiveSeed(spec.BaseSeed)]
			if !ok {
				return fmt.Errorf("no store entry for %s", sc.Name)
			}
			if err := t.rec.Do(0, "goldenstore.get", sc.Name, func() (map[string]float64, error) {
				payload, ok := store.Get(e.key)
				if !ok {
					return nil, fmt.Errorf("store miss on a filled store")
				}
				return map[string]float64{"bytes": float64(len(payload))}, nil
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// countTiers records which golden tier served a cache's lookups.
func (t *tracer) countTiers(caches ...*offramps.GoldenCache) {
	var hits, misses, storeHits uint64
	for _, c := range caches {
		h, m := c.Stats()
		sh, _ := c.StoreStats()
		hits, misses, storeHits = hits+h, misses+m, storeHits+sh
	}
	t.rec.Count("golden.tiers", "", map[string]float64{
		"lookups":    float64(hits + misses),
		"mem_hits":   float64(hits),
		"store_hits": float64(storeHits),
	})
}

// cold replays a tableii-cold pass: every golden misses an empty store,
// is simulated, and is written back.
func (t *tracer) cold(ctx context.Context) error {
	dir := filepath.Join(t.cfg.work, "trace-cold")
	spec, _, err := t.tracedSpec(tableIIGrid)
	if err != nil {
		return err
	}
	serial, err := runGrid(ctx, spec, filepath.Join(dir, "serial"), filepath.Join(dir, "rows.jsonl"), 1)
	if err != nil {
		return err
	}
	st := serial.store.StatsSnapshot()
	t.rec.Count("golden.fill", spec.Name, map[string]float64{"sims": float64(serial.cache.Sims())})
	t.rec.Count("goldenstore.stats", spec.Name, map[string]float64{
		"filter_skips": float64(st.FilterSkips),
		"lookups":      float64(st.Hits + st.Misses),
	})
	parallel, err := runGrid(ctx, spec, filepath.Join(dir, "parallel"), filepath.Join(dir, "rows.jsonl"), workers)
	if err != nil {
		return err
	}
	if !bytes.Equal(parallel.doc, serial.doc) {
		return checkFailed("serial and parallel cold passes differ")
	}

	root, end := t.root("tableii-cold")
	var store *goldenstore.Store
	if err := t.rec.Do(root, "goldenstore.open", spec.Name, func() (map[string]float64, error) {
		var err error
		store, err = goldenstore.Open(filepath.Join(dir, "traced"))
		return nil, err
	}); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "traced.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	sink := offramps.NewJSONLSink(f)
	sink.Label = spec.Name
	rep := &offramps.SuiteReport{Suite: spec.Name, BaseSeed: spec.BaseSeed}
	results := make(map[string]offramps.ScenarioResult)
	compiled := make(map[string]bool)
	for _, sc := range spec.Scenarios {
		s, err := t.compile(root, spec, sc)
		if err != nil {
			return err
		}
		if prog, _ := json.Marshal(sc.Program); !compiled[string(prog)] {
			compiled[string(prog)] = true
			if err := t.rec.Do(root, "firmware.compile", sc.Name, func() (map[string]float64, error) {
				c, err := firmware.Compile(s.Program, firmware.DefaultConfig())
				if err != nil {
					return nil, err
				}
				return map[string]float64{"commands": float64(c.Commands())}, nil
			}); err != nil {
				return err
			}
		}
		e, ok := t.entries[s.Seed]
		if !ok {
			return fmt.Errorf("no store key for %s", sc.Name)
		}
		if err := t.rec.Do(root, "goldenstore.miss", sc.Name, func() (map[string]float64, error) {
			if _, ok := store.Get(e.key); ok {
				return nil, fmt.Errorf("hit in an empty store")
			}
			return nil, nil
		}); err != nil {
			return err
		}
		r, err := t.testbedRun(ctx, root, s, offramps.CaptureFull)
		if err != nil {
			return err
		}
		if err := t.rec.Do(root, "goldenstore.put", sc.Name, func() (map[string]float64, error) {
			return nil, store.Put(e.key, e.payload)
		}); err != nil {
			return err
		}
		if err := t.emit(root, sink, r); err != nil {
			return err
		}
		results[r.Name] = r
		rep.Results = append(rep.Results, r)
	}
	if rep.Comparisons, err = t.compare(root, spec, results, sink); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	doc, err := t.encode(root, rep)
	if err != nil {
		return err
	}
	traced := end(serial.stats.wall)
	if !bytes.Equal(doc, serial.doc) {
		return checkFailed("traced cold replay's report differs from the untraced run's")
	}
	t.rec.Count("campaign.pass", spec.Name, map[string]float64{
		"serial_ns":         float64(traced),
		"workers_x_wall_ns": float64(workers * parallel.stats.wall),
	})
	golden := results[spec.Scenarios[0].Name]
	if spec.Scenarios[0].Name != "golden" || golden.Result == nil || golden.Result.Recording == nil {
		return fmt.Errorf("Table II grid's first scenario is not the golden print")
	}
	t.testPart = golden.Result.Recording
	return nil
}

// countingDetector counts the transactions a live detector observes.
type countingDetector struct {
	detect.Detector
	tx int
}

func (c *countingDetector) Observe(tx capture.Transaction) detect.Verdict {
	c.tx++
	return c.Detector.Observe(tx)
}

// fingerprint replays a sweep-fingerprint pass: one fused print per
// seed, observed by every limit variant's detector at once.
func (t *tracer) fingerprint(ctx context.Context) error {
	scens, err := fingerprintScenarios(t.cfg.seed)
	if err != nil {
		return err
	}
	start := time.Now()
	want, err := offramps.Campaign{Workers: 1, CaptureMode: offramps.CaptureFingerprint}.Run(ctx, scens)
	if err != nil {
		return err
	}
	untraced := time.Since(start)

	root, end := t.root("sweep-fingerprint")
	tx := 0
	for s := 0; s < fpSeeds; s++ {
		dets := make([]*countingDetector, fpVariants)
		for v := range dets {
			d, err := detect.NewRuleEngine(variantLimits(v))
			if err != nil {
				return err
			}
			dets[v] = &countingDetector{Detector: d}
		}
		sc := scens[s] // variant 0 at seed s; the other variants ride along
		sc.Detector = func() (detect.Detector, error) { return dets[0], nil }
		for _, d := range dets[1:] {
			sc.RunOptions = append(sc.RunOptions, offramps.WithDetector(d, offramps.FlagOnly))
		}
		r, err := t.testbedRun(ctx, root, sc, offramps.CaptureFingerprint)
		if err != nil {
			return err
		}
		for v, d := range dets {
			t.rows++
			tx += d.tx
			rep := r.Result.Detections[v]
			got := fmt.Sprintf("%v/%d/%x", rep.TrojanLikely, len(rep.Violations), r.Result.Fingerprint.Digest)
			if w := verdictOf(want[v*fpSeeds+s]); got != w {
				return checkFailed("fused replay of %s: verdict %s, campaign %s", want[v*fpSeeds+s].Name, got, w)
			}
		}
	}
	end(untraced)
	t.rec.Count("detect.sweep", "sweep-fingerprint", map[string]float64{"tx": float64(tx)})

	// The observe probe: each variant's rule engine over the golden
	// test-part capture, once per seed of the sweep.
	for s := 0; s < fpSeeds; s++ {
		for v := 0; v < fpVariants; v++ {
			if err := t.rec.Do(0, "detect.observe", fmt.Sprintf("v%d", v), func() (map[string]float64, error) {
				d, err := detect.NewRuleEngine(variantLimits(v))
				if err != nil {
					return nil, err
				}
				if _, err := detect.Replay(t.testPart, d); err != nil {
					return nil, err
				}
				return map[string]float64{"tx": float64(t.testPart.Len())}, nil
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// farmTrace times every worker round trip of one sweep.
type farmTrace struct {
	rec    *spans.Recorder
	parent int64

	mu       sync.Mutex
	requests int
	pollWait time.Duration
	waiting  map[string]time.Time // worker → when its last lease said "wait"
}

func (ft *farmTrace) transport(worker string) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		ft.mu.Lock()
		ft.requests++
		if since, ok := ft.waiting[worker]; ok {
			ft.pollWait += time.Since(since)
			delete(ft.waiting, worker)
		}
		ft.mu.Unlock()

		op := strings.TrimPrefix(req.URL.Path, "/v1/")
		id := ft.rec.Begin(ft.parent, "farm."+op, worker)
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			ft.rec.End(id, nil)
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			ft.rec.End(id, nil)
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var attrs map[string]float64
		var lr farm.LeaseReply
		if op == "lease" && json.Unmarshal(body, &lr) == nil && lr.Status == farm.StatusWait {
			attrs = map[string]float64{"wait": 1}
			ft.mu.Lock()
			ft.waiting[worker] = time.Now()
			ft.mu.Unlock()
		}
		ft.rec.End(id, attrs)
		return resp, nil
	})
}

// finish closes the poll waits still open when the sweep ended.
func (ft *farmTrace) finish() (requests int, pollWait time.Duration) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for _, since := range ft.waiting {
		ft.pollWait += time.Since(since)
	}
	return ft.requests, ft.pollWait
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// farm replays farm-progressive sweeps with every worker round trip
// timed, then replays the last sweep's journal, stitch and schedule
// through the layers' public functions.
func (t *tracer) farm(ctx context.Context) error {
	dir := filepath.Join(t.cfg.work, "trace-farm")
	spec, layout, err := t.tracedSpec(sweepGrid)
	if err != nil {
		return err
	}
	fill, err := runGrid(ctx, spec, filepath.Join(dir, "store"), filepath.Join(dir, "fill.jsonl"), workers)
	if err != nil {
		return err
	}
	fi := &farmInstance{cfg: t.cfg, dir: dir, spec: spec, layout: layout, store: fill.store}
	if err := t.rec.Do(0, "goldenstore.open", spec.Name, func() (map[string]float64, error) {
		var err error
		fi.store, err = goldenstore.Open(filepath.Join(dir, "store"))
		return nil, err
	}); err != nil {
		return err
	}
	var untraced time.Duration
	for i := 0; i < farmTraceSweeps; i++ {
		ps, err := fi.pass(ctx, i)
		if err != nil {
			return err
		}
		untraced += ps.wall
	}

	root, end := t.root("farm-progressive")
	var last sweepResult
	for i := 0; i < farmTraceSweeps; i++ {
		id := t.rec.Begin(root, "farm.sweep", fmt.Sprint(i))
		ft := &farmTrace{rec: t.rec, parent: id, waiting: make(map[string]time.Time)}
		s, err := fi.sweep(ctx, farmTraceSweeps+i, ft.transport)
		requests, pollWait := ft.finish()
		t.rec.End(id, map[string]float64{
			"requests":     float64(requests),
			"executed":     float64(s.stats.Executed),
			"poll_wait_ns": float64(pollWait),
		})
		if err != nil {
			return err
		}
		if !bytes.Equal(s.doc, fi.want) {
			return checkFailed("traced farm sweep's report differs from the untraced sweeps'")
		}
		t.countTiers(s.caches...)
		t.rows += s.ps.rows
		t.failed += s.ps.failed
		if last.journal != "" {
			os.Remove(last.journal)
		}
		last = s
	}
	end(untraced)
	return t.farmLayers(spec, layout, last)
}

// farmLayers replays one finished sweep's journal through the layers a
// coordinator drives: journal commits, the stitch, and the scheduler.
func (t *tracer) farmLayers(spec *offramps.SuiteSpec, layout *sched.Grid, s sweepResult) error {
	data, err := os.ReadFile(s.journal)
	if err != nil {
		return err
	}
	ix, err := offramps.ReadResumeIndex(bytes.NewReader(data), spec.Name)
	if err != nil {
		return err
	}
	var stitched *offramps.RawSuiteReport
	if err := t.rec.Do(0, "sink.stitch", spec.Name, func() (map[string]float64, error) {
		var err error
		stitched, err = offramps.StitchReport(spec, ix.Scenarios, ix.Compares)
		return nil, err
	}); err != nil {
		return err
	}
	doc, err := encodeDoc(offramps.RawReportDoc{Suites: []offramps.RawSuiteReport{*stitched}})
	if err != nil {
		return err
	}
	if !bytes.Equal(doc, s.doc) {
		return checkFailed("journal restitches to a different report than the coordinator's")
	}

	// Journal commits: each completion's rows appended, then committed
	// (fsynced, at the CLI's cadence of every completion).
	j, err := farm.OpenJournal(s.journal+".replay", farmConfig.SyncEvery)
	if err != nil {
		return err
	}
	defer os.Remove(s.journal + ".replay")
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		if err := j.Append(line); err != nil {
			j.Close()
			return err
		}
		row, err := offramps.ParseStreamRow(line)
		if err != nil {
			j.Close()
			return err
		}
		if row.Key != "" {
			continue // a comparison row; its scenario row ends the unit
		}
		if err := t.rec.Do(0, "farm.commit", row.Name, func() (map[string]float64, error) { return nil, j.Commit() }); err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	os.Remove(s.journal)

	// The schedule: the scheduler's rounds against the sweep's verdicts.
	verdicts := make(map[string]sched.Verdict)
	for _, raw := range stitched.Comparisons {
		var c struct {
			Suspect string `json:"suspect"`
			Report  *struct{ TrojanLikely bool }
		}
		if err := json.Unmarshal(raw, &c); err != nil {
			return err
		}
		if c.Report != nil && c.Report.TrojanLikely {
			verdicts[c.Suspect] = sched.Trojan
		}
	}
	sc, err := sched.New(layout, farmSched)
	if err != nil {
		return err
	}
	id := t.rec.Begin(0, "sched.sweep", spec.Name)
	for {
		var round []string
		if err := t.rec.Do(id, "sched.round", "", func() (map[string]float64, error) {
			var err error
			round, err = sc.NextRound()
			sc.TakeRetired()
			return nil, err
		}); err != nil {
			return err
		}
		if len(round) == 0 {
			break
		}
		for _, name := range round {
			v, ok := verdicts[name]
			if !ok {
				v = sched.Clean
			}
			if err := sc.Observe(name, v); err != nil {
				return err
			}
		}
	}
	st := sc.Stats()
	t.rec.End(id, map[string]float64{
		"rounds":   float64(st.Rounds),
		"executed": float64(st.Executed),
		"skipped":  float64(st.Skipped),
		"total":    float64(st.Total),
	})
	if st != s.stats.Stats {
		return checkFailed("scheduler replay %+v differs from the farm sweep's %+v", st, s.stats.Stats)
	}
	return nil
}
