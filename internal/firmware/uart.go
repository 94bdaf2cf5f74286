package firmware

import (
	"offramps/internal/signal"
	"offramps/internal/sim"
)

// uartTx is a bit-banged 8N1 UART transmitter for the display link the
// RAMPS routes through its AUX headers (paper §III-C2 item 4). The
// OFFRAMPS FPGA sits on this line too; tracing it shows firmware status
// traffic alongside the control signals.
//
// Idle level is high (UART mark); a frame is start(0), 8 data bits LSB
// first, stop(1).
type uartTx struct {
	engine  *sim.Engine
	line    *signal.Line
	bitTime sim.Time
	// busyUntil serializes frames: a new byte begins after the previous
	// one's stop bit.
	busyUntil sim.Time
	sent      int
}

func newUARTTx(engine *sim.Engine, line *signal.Line, baud int) *uartTx {
	line.Set(signal.High) // idle mark
	return &uartTx{
		engine:  engine,
		line:    line,
		bitTime: sim.Time(int64(sim.Second) / int64(baud)),
	}
}

// sendString queues every byte of s for transmission.
func (u *uartTx) sendString(s string) {
	for i := 0; i < len(s); i++ {
		u.sendByte(s[i])
	}
}

// sendByte schedules the 10 bit transitions of one frame.
func (u *uartTx) sendByte(b byte) {
	start := u.engine.Now()
	if u.busyUntil > start {
		start = u.busyUntil
	}
	// Start bit.
	u.line.SetAt(start, signal.Low)
	// Data bits, LSB first.
	for bit := 0; bit < 8; bit++ {
		level := signal.Low
		if b&(1<<bit) != 0 {
			level = signal.High
		}
		u.line.SetAt(start+sim.Time(bit+1)*u.bitTime, level)
	}
	// Stop bit.
	u.line.SetAt(start+9*u.bitTime, signal.High)
	u.busyUntil = start + 10*u.bitTime
	u.sent++
}

// uartRx decodes 8N1 frames from a line by sampling mid-bit after each
// start edge. The FPGA test bench uses it to verify display traffic
// passes through the MITM unharmed.
type uartRx struct {
	engine  *sim.Engine
	bitTime sim.Time
	bytes   []byte

	sampling bool
}

// newUARTRx attaches a receiver to line.
func newUARTRx(engine *sim.Engine, line *signal.Line, baud int) *uartRx {
	rx := &uartRx{engine: engine, bitTime: sim.Time(int64(sim.Second) / int64(baud))}
	line.Watch(func(at sim.Time, level signal.Level) {
		if level != signal.Low || rx.sampling {
			return
		}
		// Falling edge while idle: start bit. Sample the 8 data bits at
		// their centres.
		rx.sampling = true
		var b byte
		for bit := 0; bit < 8; bit++ {
			bit := bit
			engine.Schedule(at+sim.Time(bit+1)*rx.bitTime+rx.bitTime/2, func() {
				if line.Level() == signal.High {
					b |= 1 << bit
				}
			})
		}
		engine.Schedule(at+9*rx.bitTime+rx.bitTime/2, func() {
			rx.bytes = append(rx.bytes, b)
			rx.sampling = false
		})
	})
	return rx
}

// received returns the decoded bytes so far.
func (rx *uartRx) received() []byte { return rx.bytes }
