package firmware

import (
	"offramps/internal/signal"
	"offramps/internal/sim"
)

// stepTrain.FireEdge arguments: which edge of the pulse to emit.
const (
	trainRise uint32 = iota
	trainFall
)

// stepTrain emits the step pulses of one axis of one planned move through
// the engine's allocation-free fast path. Instead of enqueueing every
// pulse of the move upfront (O(steps) pending events and two fresh
// closures per pulse), the train keeps at most one rise and one fall in
// flight: each rising edge schedules its own falling edge and the next
// rise from the move's precomputed velocity profile. Pulse timestamps are
// identical to the eager schedule — base plus the profile time of pulse k
// — so captures stay bit-identical.
type stepTrain struct {
	fw    *Firmware
	line  *signal.Line
	prof  profile
	base  sim.Time // absolute move origin (DIR setup already honoured)
	width sim.Time
	k, n  int
	// edge is the train's handle on the engine's edge fast path. It
	// holds no pointer and survives release, so a pooled train binds
	// once per engine epoch: on its first acquisition after the engine
	// was created or Reset.
	edge sim.Bound
}

// riseAt returns the absolute time of pulse k's rising edge — the same
// arithmetic as plannedMove.stepTime, anchored at base.
func (t *stepTrain) riseAt(k int) sim.Time {
	frac := (float64(k) + 0.5) / float64(t.n)
	return t.base + sim.FromSeconds(t.prof.timeAt(frac*t.prof.dist))
}

// FireEdge implements sim.EdgeTarget. A rise drives the line High, books
// the matching fall, and books the next pulse's rise; the final fall
// recycles the train into the firmware's pool.
func (t *stepTrain) FireEdge(arg uint32) {
	if arg == trainFall {
		t.line.Set(signal.Low)
		if t.k >= t.n {
			// Last falling edge: no pending event references the train.
			t.fw.releaseTrain(t)
		}
		return
	}
	if t.fw.killed {
		// Match the eager schedule's kill behaviour: suppressed rises
		// produce no edges (a pre-scheduled fall on an already-Low line
		// was a no-op). The train is abandoned to the collector — kills
		// happen at most once per run.
		return
	}
	t.line.Set(signal.High)
	engine := t.fw.engine
	engine.ScheduleEdge(engine.Now()+t.width, t.edge, trainFall)
	t.k++
	if t.k < t.n {
		engine.ScheduleEdge(t.riseAt(t.k), t.edge, trainRise)
	}
}

// TrainCache recycles step trains. Each firmware owns one by default;
// a pooled testbed core (Config.Trains) shares a cache across the
// sequential runs of one campaign worker, so a reused rig steps with
// zero train allocations. Released trains are zeroed down to their
// pointer-free engine handle, so a cache never pins a dead run's engine
// or firmware. Not safe for concurrent use — one cache belongs to one
// worker at a time.
type TrainCache struct{ pool []*stepTrain }

// NewTrainCache returns an empty cache.
func NewTrainCache() *TrainCache { return &TrainCache{} }

// acquireTrain takes a train from the pool or allocates one, and binds
// it to the firmware's engine unless its handle is still live there.
func (fw *Firmware) acquireTrain() *stepTrain {
	var t *stepTrain
	pool := fw.trains.pool
	if n := len(pool); n > 0 {
		t = pool[n-1]
		pool[n-1] = nil
		fw.trains.pool = pool[:n-1]
	} else {
		t = new(stepTrain)
	}
	if !fw.engine.Holds(t.edge) {
		t.edge = fw.engine.Bind(t)
	}
	return t
}

// releaseTrain returns a finished train to the pool.
func (fw *Firmware) releaseTrain(t *stepTrain) {
	*t = stepTrain{edge: t.edge}
	fw.trains.pool = append(fw.trains.pool, t)
}
