package firmware

import (
	"fmt"

	"offramps/internal/ramps"
	"offramps/internal/signal"
	"offramps/internal/sim"
)

// heater is one temperature control loop (hotend or bed): ADC sampling of
// the thermistor channel, PID with feedforward, software PWM onto the
// MOSFET gate pin, and Marlin-style thermal protection.
type heater struct {
	name    string
	pin     *signal.Line
	analog  *signal.Analog
	adc     signal.ADC
	ntc     ramps.Thermistor
	gains   PID
	maxTemp float64
	ambient float64

	// Watchdog parameters (from Config).
	watchPeriod   sim.Time
	watchIncrease float64
	watchMargin   float64

	target   float64
	measured float64
	integral float64
	lastErr  float64
	duty     float64

	// Heat-up watchdog state.
	watchActive bool
	watchBase   float64  // temperature at window start
	watchAt     sim.Time // window start

	// killed latches after a protection trip: output forced off.
	killed bool

	// edge is the heater's handle on the engine's edge fast path, which
	// ends each software-PWM window.
	edge sim.Bound
}

func newHeater(engine *sim.Engine, name string, pin *signal.Line, analog *signal.Analog, maxTemp float64, gains PID, cfg Config) *heater {
	h := &heater{
		name:          name,
		pin:           pin,
		analog:        analog,
		adc:           signal.ADC{Bits: 10, VRef: 5.0},
		ntc:           ramps.StandardThermistor(),
		gains:         gains,
		maxTemp:       maxTemp,
		ambient:       25,
		watchPeriod:   cfg.WatchPeriod,
		watchIncrease: cfg.WatchIncrease,
		watchMargin:   cfg.WatchMargin,
	}
	h.edge = engine.Bind(h)
	return h
}

// sample reads the thermistor through the 10-bit ADC, exactly as the Mega
// does: analog voltage → code → temperature.
func (h *heater) sample() float64 {
	code := h.adc.Convert(h.analog.Value())
	h.measured = h.ntc.Temperature(h.adc.Voltage(code))
	return h.measured
}

// protectionError describes a thermal protection trip.
type protectionError struct {
	heater string
	reason string
	temp   float64
}

func (e *protectionError) Error() string {
	return fmt.Sprintf("firmware: %s thermal protection: %s at %.1f°C", e.heater, e.reason, e.temp)
}

// control runs one PID iteration at time now with loop period dt seconds.
// It returns a non-nil error when thermal protection trips; the caller
// kills the machine.
func (h *heater) control(now sim.Time, dt float64) error {
	temp := h.sample()

	if temp > h.maxTemp {
		h.trip()
		return &protectionError{heater: h.name, reason: "MAXTEMP exceeded", temp: temp}
	}

	if h.killed || h.target <= 0 {
		h.duty = 0
		h.watchActive = false
		return nil
	}

	// Heat-up watchdog: while far below target the temperature must keep
	// climbing. A heater that lost power (trojan T6) stops climbing and
	// trips this within one watch period — "causing the Marlin firmware to
	// enter an error state and end the print prematurely" (§IV-C).
	if temp < h.target-h.watchMargin {
		if !h.watchActive {
			h.watchActive = true
			h.watchBase = temp
			h.watchAt = now
		} else if now-h.watchAt >= h.watchPeriod {
			if temp-h.watchBase < h.watchIncrease {
				h.trip()
				return &protectionError{heater: h.name, reason: "heating failed (thermal runaway watch)", temp: temp}
			}
			h.watchBase = temp
			h.watchAt = now
		}
	} else {
		h.watchActive = false
	}

	// PID with feedforward.
	err := h.target - temp
	h.integral += err * dt
	clampAbs(&h.integral, 200) // anti-windup
	deriv := (err - h.lastErr) / dt
	h.lastErr = err
	duty := h.gains.Kff*(h.target-h.ambient) +
		h.gains.Kp*err + h.gains.Ki*h.integral + h.gains.Kd*deriv
	if duty < 0 {
		duty = 0
	}
	if duty > 1 {
		duty = 1
	}
	h.duty = duty
	return nil
}

// FireEdge implements sim.EdgeTarget: it ends a software-PWM window by
// dropping the MOSFET gate, unless a newer window raised the duty to full.
func (h *heater) FireEdge(uint32) {
	if h.duty < 0.999 {
		h.pin.Set(signal.Low)
	}
}

// trip latches the heater off.
func (h *heater) trip() {
	h.killed = true
	h.duty = 0
	h.target = 0
	h.pin.Set(signal.Low)
}

// setTarget programs a new setpoint and resets the watchdog window.
func (h *heater) setTarget(t float64) {
	if h.killed {
		return
	}
	h.target = t
	h.integral = 0
	h.watchActive = false
}

// reached reports whether the measurement is within hysteresis of target.
func (h *heater) reached(hysteresis float64) bool {
	if h.target <= 0 {
		return true
	}
	diff := h.measured - h.target
	if diff < 0 {
		diff = -diff
	}
	return diff <= hysteresis
}

func clampAbs(v *float64, lim float64) {
	if *v > lim {
		*v = lim
	}
	if *v < -lim {
		*v = -lim
	}
}
