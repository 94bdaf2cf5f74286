// Package signal models the electrical layer of the OFFRAMPS platform:
// named digital lines with edge listeners and propagation delay, the full
// RAMPS 1.4 pin map as a Bus, analog channels for the thermistor path, and
// logic-analyzer-style traces with timing statistics and VCD export.
//
// Everything between the Arduino (firmware twin) and the RAMPS board
// (driver/plant model) — and everything the FPGA intercepts — travels over
// these lines, exactly as on the physical OFFRAMPS PCB where all GPIO
// headers pass through the Cmod-A7 (paper Section III-C).
package signal

import (
	"fmt"

	"offramps/internal/sim"
)

// Level is a digital logic level.
type Level uint8

// Digital logic levels. The OFFRAMPS shifts the Arduino/RAMPS 5 V domain to
// the FPGA's 3.3 V domain and back; at the behavioural level both map to
// the same two logic states.
const (
	Low Level = iota
	High
)

// String returns "0" or "1".
func (l Level) String() string {
	if l == High {
		return "1"
	}
	return "0"
}

// Invert returns the opposite level.
func (l Level) Invert() Level {
	if l == High {
		return Low
	}
	return High
}

// Listener observes level changes on a Line. It runs synchronously inside
// the simulation event that changed the line.
type Listener func(at sim.Time, level Level)

// Line is a single digital signal line. A Line belongs to an Engine; all
// transitions are timestamped with the engine clock. The zero value is not
// usable — create lines with NewLine or through a Bus.
type Line struct {
	name      string
	engine    *sim.Engine
	level     Level
	listeners []Listener
	// edges counts transitions since creation (both directions).
	edges uint64
	// lastChange is the time of the most recent transition.
	lastChange sim.Time
	// edge is the line's handle on the engine's edge fast path.
	edge sim.Bound
}

// NewLine creates a line named name at level Low.
func NewLine(engine *sim.Engine, name string) *Line {
	if engine == nil {
		panic("signal: NewLine with nil engine")
	}
	l := &Line{name: name, engine: engine}
	l.edge = engine.Bind(l)
	return l
}

// Name reports the line's name (e.g. "X_STEP").
func (l *Line) Name() string { return l.name }

// Level reports the current logic level.
func (l *Line) Level() Level { return l.level }

// Edges reports the number of transitions observed since creation.
func (l *Line) Edges() uint64 { return l.edges }

// LastChange reports the time of the most recent transition.
func (l *Line) LastChange() sim.Time { return l.lastChange }

// Watch registers fn to be called on every level change. Listeners cannot
// be removed; attach a guard inside fn if conditional delivery is needed.
// (Module lifetimes in this system equal the simulation lifetime, matching
// synthesized FPGA logic, so removal has no use case.)
func (l *Line) Watch(fn Listener) {
	if fn == nil {
		panic("signal: Watch with nil listener")
	}
	l.listeners = append(l.listeners, fn)
}

// Set drives the line to level at the current simulation time. Setting the
// line to its current level is a no-op (no edge, no listener calls),
// mirroring real electrical behaviour.
func (l *Line) Set(level Level) {
	if level == l.level {
		return
	}
	l.level = level
	l.edges++
	l.lastChange = l.engine.Now()
	for _, fn := range l.listeners {
		fn(l.lastChange, level)
	}
}

// FireEdge implements sim.EdgeTarget: it drives the line to Level(arg).
// It is the engine's allocation-free fast path behind SetAt, SetAfter,
// Pulse and Connect — a callback bound once in NewLine with the target
// level as the argument, in place of a fresh closure per scheduled edge.
func (l *Line) FireEdge(arg uint32) { l.Set(Level(arg)) }

// SetAt schedules the line to be driven to level at absolute time at.
func (l *Line) SetAt(at sim.Time, level Level) {
	l.engine.ScheduleEdge(at, l.edge, uint32(level))
}

// SetAfter schedules the line to be driven to level after delay. It models
// a gate or level-shifter output with known propagation delay.
func (l *Line) SetAfter(delay sim.Time, level Level) {
	l.engine.AfterEdge(delay, l.edge, uint32(level))
}

// Pulse drives the line High for width, then back Low. If the line is
// already High it is first taken Low now, and the distinct rising edge
// follows one engine tick (1 ns) later — keeping the falling edge
// timestamp-distinct so Trace pulse-width statistics never observe a
// zero-width pulse.
func (l *Line) Pulse(width sim.Time) {
	if width <= 0 {
		panic(fmt.Sprintf("signal: Pulse with non-positive width %v", width))
	}
	if l.level == High {
		l.Set(Low)
		l.SetAfter(sim.Nanosecond, High)
		l.SetAfter(sim.Nanosecond+width, Low)
		return
	}
	l.Set(High)
	l.SetAfter(width, Low)
}

// Connect forwards every transition of l onto dst after delay. This is the
// behavioural model of a wire through the OFFRAMPS jumpers and level
// shifters: in bypass mode the MITM path is exactly a Connect with the
// measured propagation delay (≤ 12.923 ns in the paper). dst immediately
// assumes l's current level.
func (l *Line) Connect(dst *Line, delay sim.Time) {
	if delay < 0 {
		panic("signal: Connect with negative delay")
	}
	dst.Set(l.level)
	l.Watch(func(_ sim.Time, level Level) {
		if delay == 0 {
			dst.Set(level)
			return
		}
		dst.SetAfter(delay, level)
	})
}
