package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"offramps/perfbench/spans"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up (a cold page cache, a GC) does not
// move it. A set-up ends with one untimed warm-up pass, so work moved
// out of the timed passes into lazy initialization shows in setup_s.
const setupReps = 5

// passStats is what one pass of a workload did and how it came out.
type passStats struct {
	rows   int // executed scenario rows
	failed int // errored rows, quarantined rows and sink errors
	wall   time.Duration
	// Detection outcomes: Flaw3D comparisons and how many were flagged,
	// clean rows and how many were flagged.
	positives, detected int
	negatives, falsePos int
}

func (p *passStats) add(q passStats) {
	p.rows += q.rows
	p.failed += q.failed
	p.positives += q.positives
	p.detected += q.detected
	p.negatives += q.negatives
	p.falsePos += q.falsePos
}

// instance is one set-up workload, ready to run passes.
type instance interface {
	// pass runs the workload's unit of work once and checks its output.
	pass(ctx context.Context, i int) (passStats, error)
	// verify runs the output checks that need extra, untimed work.
	verify(ctx context.Context) error
}

// measure runs the end-to-end mode: set up (with a warm-up pass)
// setupReps times, then run passes until cfg.seconds have gone by.
func measure(ctx context.Context, cfg config, w workload) (result, error) {
	res := result{Metrics: map[string]metric{}}
	var setups []float64
	var inst instance
	for r := 0; r < setupReps; r++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("setup-%d", r))
		start := time.Now()
		var err error
		if inst, err = w.setup(ctx, cfg, dir); err != nil {
			return res, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		if _, err := inst.pass(ctx, 0); err != nil {
			return res, fmt.Errorf("%s: warm-up pass: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		// Start each set-up, and the timed passes, from a collected heap,
		// so rss_peak_mb does not depend on when the collector ran.
		runtime.GC()
	}

	var total passStats
	var rates []float64
	cpu0, alloc0 := cpuTime(), totalAlloc()
	deadline := time.Now().Add(cfg.seconds)
	var passErr error
	for i := 1; i == 1 || time.Now().Before(deadline); i++ {
		ps, err := inst.pass(ctx, i)
		total.add(ps)
		if err != nil {
			passErr = fmt.Errorf("%s: pass %d: %w", w.name, i, err)
			break
		}
		rates = append(rates, float64(ps.rows)/ps.wall.Seconds())
	}
	cpu, alloc := cpuTime()-cpu0, totalAlloc()-alloc0

	res.Attempted, res.Failed = total.rows, total.failed
	if res.Attempted == 0 {
		res.Attempted = 1 // a pass that died before its first row still counts as one attempt
		res.Failed = max(res.Failed, 1)
	}
	values := map[string]float64{
		"scenarios_per_s":       spans.Quantile(rates, 0.5),
		"cpu_ms_per_scenario":   float64(cpu) / float64(time.Millisecond) / float64(total.rows),
		"alloc_mb_per_scenario": float64(alloc) / 1e6 / float64(total.rows),
		"rss_peak_mb":           peakRSS(),
		"success_frac":          1 - float64(total.failed)/float64(max(total.rows, 1)),
		"detect_recall":         fracOr1(total.detected, total.positives),
		"specificity":           1 - float64(total.falsePos)/float64(max(total.negatives, 1)),
		"setup_s":               spans.Quantile(setups, 0.5),
	}
	if passErr != nil {
		res.Metrics, _ = metricsOf(values, func(n string) string { return endToEndUnits[n] })
		return res, passErr
	}
	if err := inst.verify(ctx); err != nil {
		res.Metrics, _ = metricsOf(values, func(n string) string { return endToEndUnits[n] })
		return res, fmt.Errorf("%s: %w", w.name, err)
	}
	var err error
	res.Metrics, err = metricsOf(values, func(n string) string { return endToEndUnits[n] })
	res.Correct = err == nil && total.failed == 0
	if err == nil && total.failed > 0 {
		err = checkFailed("%d of %d rows failed", total.failed, total.rows)
	}
	return res, err
}

// fracOr1 is hit/n, or 1 when there was nothing to find: a workload
// without trojaned inputs misses no trojan.
func fracOr1(hit, n int) float64 {
	if n == 0 {
		return 1
	}
	return float64(hit) / float64(n)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the heap bytes allocated since the process started.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSS is the process's peak resident set (VmHWM) in MB, NaN when
// /proc is unavailable.
func peakRSS() float64 {
	kb, ok := procStatusKB("VmHWM")
	if !ok {
		return math.NaN()
	}
	return float64(kb) * 1024 / 1e6
}

func procStatusKB(field string) (int64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != field {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		return v, err == nil
	}
	return 0, false
}

// stamp records the environment a result was measured in.
func stamp() map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"cpu":        cpuModel(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			env["commit"] = rev + dirty
		}
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
