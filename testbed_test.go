package offramps

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"offramps/internal/capture"
	"offramps/internal/firmware"
	"offramps/internal/fpga"
	"offramps/internal/gcode"
	"offramps/internal/printer"
	"offramps/internal/signal"
	"offramps/internal/sim"
	"offramps/internal/trojan"
)

func mustTestPart(t *testing.T) gcode.Program {
	t.Helper()
	prog, err := TestPart()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// captureRun prints prog on a fresh testbed and returns its capture — the
// single-print convenience used by benches and tests.
func captureRun(prog gcode.Program, seed uint64) (*capture.Recording, error) {
	tb, err := NewTestbed(WithSeed(seed))
	if err != nil {
		return nil, err
	}
	res, err := tb.Run(context.Background(), prog)
	if err != nil {
		return nil, err
	}
	if res.Recording == nil || res.Recording.Len() == 0 {
		return nil, fmt.Errorf("offramps: print produced no capture")
	}
	return res.Recording, nil
}

func TestGoldenPrintEndToEnd(t *testing.T) {
	tb, err := NewTestbed(WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(context.Background(), mustTestPart(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("golden print halted: %v", res.HaltError)
	}
	// 1.6 mm at 0.2 mm layers = 8 layers.
	if res.Quality.LayerCount != 8 {
		t.Errorf("LayerCount = %d, want 8", res.Quality.LayerCount)
	}
	// 20 mm box minus one extrusion width.
	if math.Abs(res.Quality.FootprintW-19.55) > 0.2 {
		t.Errorf("FootprintW = %v, want ≈19.55", res.Quality.FootprintW)
	}
	// A clean print shows no meaningful layer shift.
	if res.Quality.MaxLayerShift > 0.2 {
		t.Errorf("MaxLayerShift = %v on a clean print", res.Quality.MaxLayerShift)
	}
	// The hotend regulated near 210 and never ran away.
	if res.PeakHotendTemp < 208 || res.PeakHotendTemp > 225 {
		t.Errorf("PeakHotendTemp = %v", res.PeakHotendTemp)
	}
	if res.HotendExceededSafe {
		t.Error("clean print exceeded thermal spec")
	}
	// The part fan ran at full speed after layer 1.
	if res.PeakFanDuty < 0.9 {
		t.Errorf("PeakFanDuty = %v", res.PeakFanDuty)
	}
	// Capture exists, is non-trivial, and ends settled.
	if res.Recording == nil || res.Recording.Len() < 100 {
		t.Fatalf("capture too small: %v", res.Recording)
	}
	final, _ := res.Recording.Final()
	if final.E <= 0 {
		t.Errorf("final E count = %d", final.E)
	}
	// No steps were lost on a clean run.
	for a, lost := range res.StepsLost {
		if lost != 0 {
			t.Errorf("StepsLost[%v] = %d on clean run", a, lost)
		}
	}
}

// TestGoldenPrintSkipsEmptyWindows pins the engine's window counter on a
// real print: the drain loop visits only windows that hold events, so a
// golden print drains no more wheel windows than it executes events
// (walking every 8.192 µs window instead would cost ~12.4 M for ~1.2 M).
func TestGoldenPrintSkipsEmptyWindows(t *testing.T) {
	tb, err := NewTestbed(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(context.Background(), mustTestPart(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("golden print halted: %v", res.HaltError)
	}
	windows, events := tb.Engine.Windows(), tb.Engine.Executed()
	if windows == 0 || windows > events {
		t.Fatalf("golden print drained %d windows for %d events, want 0 < windows <= events", windows, events)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func() *Result {
		tb, err := NewTestbed(WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		res, err := tb.Run(context.Background(), mustTestPart(t))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Duration != b.Duration {
		t.Errorf("durations differ: %v vs %v", a.Duration, b.Duration)
	}
	if a.Recording.Len() != b.Recording.Len() {
		t.Fatalf("capture lengths differ: %d vs %d", a.Recording.Len(), b.Recording.Len())
	}
	for i := range a.Recording.Transactions {
		if a.Recording.Transactions[i] != b.Recording.Transactions[i] {
			t.Fatalf("transaction %d differs", i)
		}
	}
}

func TestWithoutMITMMatchesGeometry(t *testing.T) {
	prog := mustTestPart(t)
	mitm, err := NewTestbed(WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	resM, err := mitm.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewTestbed(WithSeed(3), WithoutMITM())
	if err != nil {
		t.Fatal(err)
	}
	resD, err := direct.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if resD.Recording != nil {
		t.Error("direct stack produced a capture")
	}
	diff := resM.Part.Compare(resD.Part, 1.0)
	if math.Abs(diff.FilamentRatio-1) > 0.001 {
		t.Errorf("MITM changed filament: ratio %v", diff.FilamentRatio)
	}
	if diff.MaxCentroidShift > 0.01 {
		t.Errorf("MITM shifted geometry by %v mm", diff.MaxCentroidShift)
	}
}

// TestTrojanRequiresMITM: a jumpered (WithoutMITM) rig has no board to
// arm trojans on or tap — building one with either must be a
// configuration error, never a rig that silently drops them. Option
// order must not matter.
func TestTrojanRequiresMITM(t *testing.T) {
	tr := trojan.NewT7ThermalRunaway(trojan.T7Params{})
	for _, opts := range [][]Option{
		{WithoutMITM(), WithTrojan(tr)},
		{WithTrojan(tr), WithoutMITM()},
	} {
		tb, err := NewTestbed(opts...)
		if err == nil {
			t.Fatal("trojan accepted on direct-wired stack")
		}
		if tb != nil {
			t.Error("failed construction returned a testbed")
		}
		if !strings.Contains(err.Error(), "config error") {
			t.Errorf("error does not read as a configuration error: %v", err)
		}
	}
}

// TestTapSideRequiresMITM: the monitoring tap lives on the board, so
// placing it on a jumpered rig is the same class of configuration error.
func TestTapSideRequiresMITM(t *testing.T) {
	_, err := NewTestbed(WithoutMITM(), WithTapSide(fpga.TapRAMPS))
	if err == nil || !strings.Contains(err.Error(), "config error") {
		t.Fatalf("tap side accepted on direct-wired stack: %v", err)
	}
}

// TestDualTapRun prints end to end with both buses tapped: the two
// captures must agree on a clean print (modulo nothing — same counters,
// same windows), and the per-side recordings surface on the Result.
func TestDualTapRun(t *testing.T) {
	tb, err := NewTestbed(WithSeed(3), WithTapSide(fpga.TapDual))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(context.Background(), mustTestPart(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("dual-tap print halted: %v", res.HaltError)
	}
	if res.ArduinoRecording == nil || res.RAMPSRecording == nil {
		t.Fatal("dual tap missing a per-side recording")
	}
	if res.Recording != res.ArduinoRecording {
		t.Error("primary recording is not the Arduino-side capture")
	}
	a, r := res.ArduinoRecording, res.RAMPSRecording
	if a.Len() == 0 || a.Len() != r.Len() {
		t.Fatalf("capture lengths: arduino %d, ramps %d", a.Len(), r.Len())
	}
	for i := range a.Transactions {
		if a.Transactions[i] != r.Transactions[i] {
			t.Fatalf("clean print: taps disagree at window %d: %+v vs %+v",
				i, a.Transactions[i], r.Transactions[i])
		}
	}
}

func TestRunTimeout(t *testing.T) {
	tb, err := NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	// A dwell longer than the budget.
	prog, err := gcode.ParseString("G4 S100\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = tb.Run(context.Background(), prog, WithLimit(5*sim.Second))
	var timeout *ErrTimeout
	if !errors.As(err, &timeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if !strings.Contains(err.Error(), "did not finish") {
		t.Errorf("timeout message: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	tb, err := NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Run(context.Background(), nil, WithLimit(0)); err == nil {
		t.Error("zero limit accepted")
	}
	if _, err := tb.Run(context.Background(), nil, WithLimit(sim.Second)); err == nil {
		t.Error("empty program accepted")
	}
}

func TestWithStartPosition(t *testing.T) {
	tb, err := NewTestbed(WithStartPosition(80, 70, 12))
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Plant.Position(signal.AxisX); got != 80 {
		t.Errorf("X start = %v", got)
	}
	if got := tb.Plant.Position(signal.AxisZ); got != 12 {
		t.Errorf("Z start = %v", got)
	}
}

func TestStartPositionDoesNotChangeCapture(t *testing.T) {
	// The paper: "As the number of steps to home is determined by the
	// arbitrary position of the print head at the start of the print,
	// capturing this data was deemed unnecessary" — counters reset at
	// homing, so two prints from different park positions must produce
	// identical captures (same seed).
	prog := mustTestPart(t)
	run := func(x, y, z float64) *Result {
		tb, err := NewTestbed(WithSeed(11), WithStartPosition(x, y, z))
		if err != nil {
			t.Fatal(err)
		}
		res, err := tb.Run(context.Background(), prog)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(55, 40, 8)
	b := run(150, 120, 30)
	// Trailing settled windows may differ in count (the session stop time
	// is not synchronized to the capture), but every synchronized window
	// and the final counts must match exactly.
	n := a.Recording.Len()
	if b.Recording.Len() < n {
		n = b.Recording.Len()
	}
	if n < 100 {
		t.Fatalf("captures too short: %d", n)
	}
	for i := 0; i < n; i++ {
		if a.Recording.Transactions[i] != b.Recording.Transactions[i] {
			t.Fatalf("transaction %d differs between park positions", i)
		}
	}
	fa, _ := a.Recording.Final()
	fb, _ := b.Recording.Final()
	fa.Index, fb.Index = 0, 0
	if fa != fb {
		t.Errorf("final counts differ: %+v vs %+v", fa, fb)
	}
}

func TestWithConfigModifiers(t *testing.T) {
	tb, err := NewTestbed(
		WithFirmwareConfig(func(c *firmware.Config) { c.DefaultFeedrate = 999 }),
		WithPlantConfig(func(c *printer.Config) { c.Ambient = 30 }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Plant.HotendTemp(); math.Abs(got-25) > 1e-9 {
		// InitialTemp still 25; ambient only affects cooling floor.
		t.Errorf("hotend initial = %v", got)
	}
}
