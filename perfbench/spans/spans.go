// Package spans records the benchmark's trace — one span per call into a
// layer's public function, made from the benchmark's own code — and
// reduces a span set to the per-layer metrics named in BENCHMARK.json.
//
// A span's name is "<layer>.<operation>" ("testbed.run",
// "goldenstore.get"); its layer is the part before the first dot. A span
// whose Start equals its End is a count record: it carries attributes
// (hits, skips, stats of a finished sweep) but no time. Both the traced
// benchmark run and the tracesum tool compute metrics through Summarize,
// so the numbers printed live and the numbers recomputed from a span
// file are the same function of the same spans.
package spans

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call (or count record). Times are nanoseconds since
// the recorder started.
type Span struct {
	ID       int64              `json:"id"`
	Parent   int64              `json:"parent,omitempty"`
	Name     string             `json:"name"`
	Scenario string             `json:"scenario,omitempty"`
	Start    int64              `json:"start"`
	End      int64              `json:"end"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
}

// Layer is the span's layer: its name up to the first dot.
func (s *Span) Layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// Dur is the span's wall time.
func (s *Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps spans in memory until the run ends. It is safe for
// concurrent use (farm workers record round trips from their own
// goroutines).
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts the trace clock.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

func (r *Recorder) now() int64 { return int64(time.Since(r.t0)) }

// Begin opens a span and returns its id.
func (r *Recorder) Begin(parent int64, name, scenario string) int64 {
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Scenario: scenario, Start: start, End: -1})
	return id
}

// End closes span id, merging attrs into its attributes.
func (r *Recorder) End(id int64, attrs map[string]float64) {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = end
	if len(attrs) > 0 {
		if s.Attrs == nil {
			s.Attrs = make(map[string]float64, len(attrs))
		}
		for k, v := range attrs {
			s.Attrs[k] = v
		}
	}
}

// Count appends a count record.
func (r *Recorder) Count(name, scenario string, attrs map[string]float64) {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Name: name, Scenario: scenario, Start: t, End: t, Attrs: attrs})
}

// Do runs fn inside a span; fn returns the span's attributes.
func (r *Recorder) Do(parent int64, name, scenario string, fn func() (map[string]float64, error)) error {
	id := r.Begin(parent, name, scenario)
	attrs, err := fn()
	r.End(id, attrs)
	return err
}

// Spans returns a copy of the spans recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Header is the first line of a span file.
type Header struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Env      map[string]string `json:"env"`
}

// Write writes a span file: the header line, then one span per line.
func Write(w io.Writer, h Header, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(h); err != nil {
		return err
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a span file written by Write.
func Read(r io.Reader) (Header, []Span, error) {
	dec := json.NewDecoder(r)
	var h Header
	if err := dec.Decode(&h); err != nil {
		return h, nil, fmt.Errorf("spans: header: %w", err)
	}
	var out []Span
	for dec.More() {
		var s Span
		if err := dec.Decode(&s); err != nil {
			return h, nil, fmt.Errorf("spans: span %d: %w", len(out)+1, err)
		}
		if s.End < s.Start {
			return h, nil, fmt.Errorf("spans: span %d (%s) was never closed", s.ID, s.Name)
		}
		out = append(out, s)
	}
	return h, out, nil
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children of one parent may
// overlap (concurrent farm workers), so the covered part is the union
// of the children's intervals.
func SelfTimes(spans []Span) map[int64]time.Duration {
	children := make(map[int64][]*Span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			start, end := max(k.Start, s.Start), min(k.End, s.End)
			if end <= start {
				continue
			}
			if start > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = start, end
			} else if end > curEnd {
				curEnd = end
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// LayerTotals sums self time and counts spans (count records excluded)
// per layer.
func LayerTotals(spans []Span) (self map[string]time.Duration, count map[string]int) {
	st := SelfTimes(spans)
	self, count = make(map[string]time.Duration), make(map[string]int)
	for i := range spans {
		s := &spans[i]
		if s.End == s.Start {
			continue
		}
		self[s.Layer()] += st[s.ID]
		count[s.Layer()]++
	}
	return self, count
}

// Overhead is the tracing overhead of one replayed workload: the traced
// replay's wall time against the untraced serial run of the same work.
type Overhead struct {
	Workload string
	Traced   time.Duration
	Untraced time.Duration
	Frac     float64
}

// Overheads reads the replay root spans ("campaign.replay" with an
// "untraced_ns" attribute) into per-workload tracing overheads.
func Overheads(spans []Span) []Overhead {
	var out []Overhead
	for i := range spans {
		s := &spans[i]
		if s.Name != "campaign.replay" {
			continue
		}
		o := Overhead{Workload: s.Scenario, Traced: s.Dur(), Untraced: time.Duration(s.Attrs["untraced_ns"])}
		if o.Untraced > 0 {
			o.Frac = float64(o.Traced-o.Untraced) / float64(o.Untraced)
		}
		out = append(out, o)
	}
	return out
}

// Layers lists the layers the benchmark traces, in pipeline order.
var Layers = []string{"spec", "firmware", "testbed", "golden", "goldenstore", "detect", "campaign", "sink", "sched", "farm"}

// Summarize reduces spans to the per-layer metrics: means and
// percentiles of the named spans' durations, ratios of their
// attributes, and each layer's total self time. Every metric in
// BENCHMARK.json's per_layer list is a key of the result; a metric
// whose spans are missing reads NaN, which the caller treats as an
// error.
func Summarize(spans []Span) map[string]float64 {
	by := make(map[string][]*Span)
	for i := range spans {
		by[spans[i].Name] = append(by[spans[i].Name], &spans[i])
	}
	durs := func(name string, unit time.Duration) []float64 {
		var out []float64
		for _, s := range by[name] {
			out = append(out, float64(s.Dur())/float64(unit))
		}
		return out
	}
	sum := func(name, attr string) float64 {
		t := 0.0
		for _, s := range by[name] {
			t += s.Attrs[attr]
		}
		return t
	}
	total := func(name string) float64 {
		t := 0.0
		for _, s := range by[name] {
			t += float64(s.Dur())
		}
		return t
	}
	n := func(name string) float64 { return float64(len(by[name])) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return math.NaN()
		}
		return a / b
	}
	perSpan := func(name, attr string) float64 { return ratio(sum(name, attr), n(name)) }
	ms, us := time.Millisecond, time.Microsecond

	m := map[string]float64{
		"spec.expand_ms":  Mean(durs("spec.expand", ms)),
		"spec.compile_ms": Mean(durs("spec.compile", ms)),
		"spec.resolve_ms": Mean(durs("spec.resolve", ms)),

		"firmware.compile_ms": Mean(durs("firmware.compile", ms)),
		"firmware.commands":   perSpan("firmware.compile", "commands"),

		"testbed.run_ms_p50":   Quantile(durs("testbed.run", ms), 0.5),
		"testbed.run_ms_p90":   Quantile(durs("testbed.run", ms), 0.9),
		"testbed.events":       perSpan("testbed.run", "events"),
		"testbed.ns_per_event": ratio(total("testbed.run"), sum("testbed.run", "events")),
		"testbed.sim_s":        perSpan("testbed.run", "sim_s"),
		"testbed.sim_speed_x":  ratio(sum("testbed.run", "sim_s"), total("testbed.run")/1e9),
		"testbed.windows":      perSpan("testbed.run", "windows"),
		"testbed.alloc_kb":     perSpan("testbed.run", "alloc_bytes") / 1024,

		"golden.lookup_ms":      Mean(durs("golden.lookup", ms)),
		"golden.sims":           perSpan("golden.fill", "sims"),
		"golden.mem_hit_frac":   ratio(sum("golden.tiers", "mem_hits"), sum("golden.tiers", "lookups")),
		"golden.store_hit_frac": ratio(sum("golden.tiers", "store_hits"), sum("golden.tiers", "lookups")),

		"goldenstore.get_us_p50":       Quantile(durs("goldenstore.get", us), 0.5),
		"goldenstore.get_us_p90":       Quantile(durs("goldenstore.get", us), 0.9),
		"goldenstore.put_ms":           Mean(durs("goldenstore.put", ms)),
		"goldenstore.open_ms":          Mean(durs("goldenstore.open", ms)),
		"goldenstore.filter_skip_frac": ratio(sum("goldenstore.stats", "filter_skips"), sum("goldenstore.stats", "lookups")),
		"goldenstore.entry_kb":         perSpan("goldenstore.get", "bytes") / 1024,

		"detect.compare_ms":        Mean(durs("detect.compare", ms)),
		"detect.observe_ns_per_tx": ratio(total("detect.observe"), sum("detect.observe", "tx")),
		"detect.tx":                perSpan("detect.sweep", "tx"),

		"campaign.parallel_eff": ratio(sum("campaign.pass", "serial_ns"), sum("campaign.pass", "workers_x_wall_ns")),

		"sink.emit_us":   Mean(durs("sink.emit", us)),
		"sink.encode_ms": Mean(durs("sink.encode", ms)),
		"sink.stitch_ms": Mean(durs("sink.stitch", ms)),
		"sink.report_kb": perSpan("sink.encode", "bytes") / 1024,

		"sched.round_us":  Mean(durs("sched.round", us)),
		"sched.rounds":    perSpan("sched.sweep", "rounds"),
		"sched.executed":  perSpan("sched.sweep", "executed"),
		"sched.skipped":   perSpan("sched.sweep", "skipped"),
		"sched.reduction": ratio(sum("sched.sweep", "skipped"), sum("sched.sweep", "total")),

		"farm.lease_rtt_ms_p50":      Quantile(durs("farm.lease", ms), 0.5),
		"farm.lease_rtt_ms_p90":      Quantile(durs("farm.lease", ms), 0.9),
		"farm.complete_rtt_ms_p50":   Quantile(durs("farm.complete", ms), 0.5),
		"farm.complete_rtt_ms_p90":   Quantile(durs("farm.complete", ms), 0.9),
		"farm.requests_per_scenario": ratio(sum("farm.sweep", "requests"), sum("farm.sweep", "executed")),
		"farm.idle_lease_frac":       ratio(sum("farm.lease", "wait"), n("farm.lease")),
		"farm.poll_wait_ms":          perSpan("farm.sweep", "poll_wait_ns") / 1e6,
		"farm.journal_commit_ms":     Mean(durs("farm.commit", ms)),
	}
	self, _ := LayerTotals(spans)
	for _, layer := range Layers {
		m[layer+".self_ms"] = float64(self[layer]) / float64(time.Millisecond)
	}
	return m
}

// Mean is the arithmetic mean (NaN for no samples).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// Quantile is the q-quantile by linear interpolation between order
// statistics (NaN for no samples).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
