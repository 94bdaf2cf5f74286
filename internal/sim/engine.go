package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// ErrStopped is returned by Run when the simulation was halted by Stop
// before reaching its target time.
var ErrStopped = errors.New("sim: engine stopped")

// EdgeTarget is a long-lived callback for the engine's allocation-free
// scheduling fast path. Hot-path schedulers (signal edges, step trains)
// register it once with Bind and then pass the returned handle and a
// small argument per event instead of allocating a fresh closure.
type EdgeTarget interface {
	// FireEdge runs the scheduled work. arg is the small payload given to
	// ScheduleEdge (a signal level, a pulse phase, ...).
	FireEdge(arg uint32)
}

// Bound is an EdgeTarget registered with one engine by Bind: the handle
// ScheduleEdge and AfterEdge take. It stays valid on that engine until
// the engine's next Reset. Scheduling with the zero Bound, a handle from
// another engine, or one from before a Reset panics, so a stale handle
// can never fire a different target.
type Bound struct {
	// key is the complement of the binding epoch's generation, so the
	// zero Bound matches no engine — not even one that has drawn no
	// generation yet — and checking a handle is one comparison.
	key uint64
	ref uint32
}

// generations issues engine generations: every engine draws a fresh one
// at its first Bind after creation or Reset, so no two binding epochs —
// on any engines — share a generation. Zero means "none drawn yet".
var generations atomic.Uint64

// closureRef marks an event's ref as an index into the closure table;
// without it, ref indexes the bound-target table. Both tables are capped
// at closureRef entries.
const closureRef uint32 = 1 << 31

// event is a scheduled callback, stored by value: the queue tiers hold
// []event slices, so steady-state scheduling performs zero allocations.
// The event holds no pointers — its payload lives in the engine's
// bound-target or closure table, named by ref — so the queues are never
// scanned by the garbage collector and moving events runs no write
// barriers. seq breaks ties between events scheduled for the same
// instant so execution order is deterministic (FIFO within an instant).
type event struct {
	at  Time
	seq uint64
	ref uint32
	arg uint32
}

// eventLess orders events by (at, seq) — the engine's total execution
// order. seq is unique, so the order is strict.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Timing-wheel geometry. The wheel is the near tier of the two-tier
// scheduler: one slot covers 2^wheelShift ns, and the whole wheel spans
// slot*count ahead of the drain window. The dominant short fixed delays of
// a print — FPGA propagation (13 ns), STEP pulse widths (2 µs), UART bit
// times (8.7 µs), step periods (≥ 50 µs at the 20 kHz envelope) — all land
// in the wheel; long periodics (PWM windows, control ticks, capture
// exports) overflow into the far-tier heap and are promoted into the wheel
// when their window comes due.
const (
	wheelShift = 13 // 8.192 µs per slot
	wheelSlots = 256
	wheelSlot  = Time(1) << wheelShift
	wheelSpan  = wheelSlot * wheelSlots
	wheelMask  = wheelSlots - 1
)

// slotOf maps an absolute timestamp to its wheel slot. The mapping is
// absolute (no cursor offset), so a slot is valid for exactly one window
// per rotation.
func slotOf(at Time) int { return int(at>>wheelShift) & wheelMask }

// Engine is a deterministic discrete-event simulator. The zero value is
// ready to use.
//
// Internally the pending set is split across two tiers that together
// implement one total (time, sequence) order:
//
//   - a hierarchical timing wheel (near tier) holding events less than
//     wheelSpan ahead, appended to unsorted slots and drained in exact
//     (at, seq) order one window at a time. An occupancy bitmap (one bit
//     per slot) lets the drain loop jump straight to the next occupied
//     window instead of walking the empty ones;
//   - a hand-rolled 4-ary min-heap of value events (far tier) holding
//     everything beyond the wheel horizon, promoted into the wheel as its
//     windows come due.
//
// Both tiers store pointer-free events by value and reuse their backing
// storage, so scheduling allocates only when a slice grows. An event's
// payload lives in one of two side tables: bound EdgeTargets (registered
// once by Bind, never removed before Reset) and Schedule closures (one
// entry per pending closure, freed indices reused last-in-first-out).
type Engine struct {
	now     Time
	seq     uint64
	stopped bool
	// executed counts events run since creation; useful for progress
	// reporting and for benchmarks that want simulated-events/op.
	executed uint64
	pending  int

	// base is the start (aligned to wheelSlot) of the wheel window
	// currently being drained. Events at < base+wheelSpan live in slots;
	// later events live in the heap.
	base       Time
	slots      [wheelSlots][]event
	wheelCount int
	// occupied has bit s set while slots[s] may hold events: set on every
	// append, cleared when the drain loop empties the slot.
	occupied [wheelSlots / 64]uint64
	// windows counts the wheel windows the drain loop has moved to.
	windows uint64

	heap []event

	// gen is the current binding epoch (zero until the first Bind after
	// creation or Reset); targets holds the EdgeTargets bound in it.
	gen     uint64
	targets []EdgeTarget
	// fns holds the pending Schedule closures; freeFns lists the indices
	// of fns whose closure has run, reused last-in-first-out.
	fns     []func()
	freeFns []uint32
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Reset returns the engine to the state NewEngine would produce while
// retaining the backing storage of its wheel slots, far-tier heap and
// payload tables — the point of pooling an engine across runs. Every
// bound target and pending closure is released (a reset engine pins
// nothing from the previous run) and every Bound handle issued before
// is invalidated. The clock returns to zero and the sequence counter
// restarts, so a run on a reset engine is bit-identical to a run on a
// fresh one.
func (e *Engine) Reset() {
	for s := range e.slots {
		e.slots[s] = e.slots[s][:0]
	}
	e.heap = e.heap[:0]
	clear(e.targets)
	e.targets = e.targets[:0]
	clear(e.fns)
	e.fns = e.fns[:0]
	e.freeFns = e.freeFns[:0]
	e.gen = 0
	e.now = 0
	e.seq = 0
	e.stopped = false
	e.executed = 0
	e.pending = 0
	e.base = 0
	e.wheelCount = 0
	e.occupied = [wheelSlots / 64]uint64{}
	e.windows = 0
}

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Executed reports the number of events processed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Windows reports the number of wheel windows the drain loop has moved to
// since creation or Reset. Empty windows are skipped, so every window
// counted held at least one pending event when the loop reached it.
func (e *Engine) Windows() uint64 { return e.windows }

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.pending }

// Schedule enqueues fn to run at absolute time at. Scheduling in the past
// (before Now) is a programming error and panics: silently reordering
// events would destroy the determinism every experiment relies on.
func (e *Engine) Schedule(at Time, fn func()) {
	if fn == nil {
		panic("sim: Schedule with nil func")
	}
	if at < e.now { // before taking a closure index
		panicPast(at, e.now)
	}
	var i uint32
	if n := len(e.freeFns); n > 0 {
		i = e.freeFns[n-1]
		e.freeFns = e.freeFns[:n-1]
		e.fns[i] = fn
	} else {
		if uint(len(e.fns)) >= uint(closureRef) {
			panic("sim: too many pending closures")
		}
		i = uint32(len(e.fns))
		e.fns = append(e.fns, fn)
	}
	e.enqueue(at, closureRef|i, 0)
}

// After enqueues fn to run d nanoseconds after the current time. A
// negative d lands before Now and panics like any past schedule.
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// Bind registers a long-lived target for ScheduleEdge and AfterEdge and
// returns its handle. The engine holds t until Reset, so bind each
// target once — at construction — not once per event.
func (e *Engine) Bind(t EdgeTarget) Bound {
	if t == nil {
		panic("sim: Bind with nil target")
	}
	if uint(len(e.targets)) >= uint(closureRef) {
		panic("sim: too many bound targets")
	}
	if e.gen == 0 {
		e.gen = generations.Add(1)
	}
	e.targets = append(e.targets, t)
	return Bound{key: ^e.gen, ref: uint32(len(e.targets) - 1)}
}

// Holds reports whether b is a live handle on e: bound by e since its
// last Reset.
func (e *Engine) Holds(b Bound) bool { return ^b.key == e.gen }

// ScheduleEdge enqueues FireEdge(arg) on the target bound as b, to run at
// absolute time at. This is the allocation-free fast path: no closure is
// created, and the event is stored by value. Ordering is identical to
// Schedule — one seq counter covers both paths. ScheduleEdge and
// AfterEdge are kept small enough to inline into their callers, which is
// why they spell out Holds: the inliner charges for the nested call.
func (e *Engine) ScheduleEdge(at Time, b Bound, arg uint32) {
	if ^b.key != e.gen {
		panic(errUnbound)
	}
	e.enqueue(at, b.ref, arg)
}

// AfterEdge enqueues FireEdge(arg) on the target bound as b, to run d
// nanoseconds after the current time, via the allocation-free fast path.
// A negative d lands before Now and panics like any past schedule.
func (e *Engine) AfterEdge(d Time, b Bound, arg uint32) {
	if ^b.key != e.gen {
		panic(errUnbound)
	}
	e.enqueue(e.now+d, b.ref, arg)
}

const errUnbound = "sim: edge handle not bound to this engine since its last Reset"

// panicPast reports an attempt to schedule at a time before now.
func panicPast(at, now Time) {
	panic(fmt.Sprintf("sim: Schedule at %v before now %v", at, now))
}

// enqueue stamps a new event with the next sequence number and routes it
// to the wheel or the heap. It rejects a time before Now; the caller has
// stored the payload ref names.
func (e *Engine) enqueue(at Time, ref, arg uint32) {
	if at < e.now {
		panicPast(at, e.now)
	}
	e.seq++
	ev := event{at: at, seq: e.seq, ref: ref, arg: arg}
	e.pending++
	if ev.at < e.base+wheelSpan {
		// Inlined by hand: an append helper taking ev costs the hot path
		// an extra copy of the event.
		s := slotOf(ev.at)
		e.slots[s] = append(e.slots[s], ev)
		e.occupied[s>>6] |= 1 << (s & 63)
		e.wheelCount++
		return
	}
	e.heapPush(ev)
}

// Stop halts the run loop after the currently executing event returns.
// Pending events remain queued; a subsequent Run resumes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue is empty or the next event
// lies beyond until. The clock is left at min(until, time of last event).
// It returns ErrStopped if Stop was called during execution.
func (e *Engine) Run(until Time) error {
	if err := e.run(until); err != nil {
		return err
	}
	if until > e.now {
		e.now = until
	}
	return nil
}

// RunUntilIdle executes every pending event (including events scheduled by
// other events) with no time bound. It returns ErrStopped if Stop was
// called. Use with care: a periodic task keeps the queue permanently non-empty; prefer
// Run with an explicit horizon for full-system simulations.
func (e *Engine) RunUntilIdle() error { return e.run(math.MaxInt64) }

// run is the drain loop shared by Run and RunUntilIdle. It executes every
// event with at ≤ until in strict (at, seq) order and leaves the clock at
// the last executed event (the callers decide whether to advance further).
//
// Each pass drains the window at base, then moves base to the earlier of
// the next occupied wheel slot and the heap top's window; empty windows
// are never visited. base never moves past until, so a later Run (or a
// Schedule at Now) still finds every pending event at or after base.
func (e *Engine) run(until Time) error {
	e.stopped = false
	for e.pending > 0 {
		// Promote far-tier events due in this window.
		for len(e.heap) > 0 && e.heap[0].at < e.base+wheelSlot {
			ev := e.heapPop()
			s := slotOf(ev.at)
			e.slots[s] = append(e.slots[s], ev)
			e.occupied[s>>6] |= 1 << (s & 63)
			e.wheelCount++
		}
		// Drain the current window in (at, seq) order. The slot is
		// unsorted and may grow while events execute (short-delay
		// reschedules land back in the same window), so each step scans
		// for the minimum remaining event.
		cur := slotOf(e.base)
		slot := &e.slots[cur]
		for len(*slot) > 0 {
			s := *slot
			min := 0
			for i := 1; i < len(s); i++ {
				if eventLess(s[i], s[min]) {
					min = i
				}
			}
			ev := s[min]
			if ev.at > until {
				return nil
			}
			last := len(s) - 1
			s[min] = s[last]
			*slot = s[:last]
			e.wheelCount--
			e.pending--
			e.now = ev.at
			e.executed++
			if ev.ref&closureRef == 0 {
				e.targets[ev.ref].FireEdge(ev.arg)
			} else {
				e.callClosure(ev.ref &^ closureRef)
			}
			if e.stopped {
				return ErrStopped
			}
			slot = &e.slots[cur]
		}
		e.occupied[cur>>6] &^= 1 << (cur & 63)
		if e.pending == 0 {
			break
		}
		// Every remaining event lies at or beyond the next window.
		next := e.nextWindow(cur)
		if next > until {
			return nil
		}
		e.base = next
		e.windows++
	}
	return nil
}

// callClosure runs the closure at index i of the closure table, freeing
// the index first so the closure's own reschedule can reuse it.
func (e *Engine) callClosure(i uint32) {
	fn := e.fns[i]
	e.fns[i] = nil
	e.freeFns = append(e.freeFns, i)
	fn()
}

// nextWindow returns the start of the earliest window after base that
// holds a pending event: the next occupied wheel slot or the heap top's
// window, whichever is earlier. cur is base's slot, already drained. The
// wheel holds only events before base+wheelSpan, so the circular distance
// from cur to an occupied slot is its distance in windows from base.
func (e *Engine) nextWindow(cur int) Time {
	next := Time(math.MaxInt64)
	if e.wheelCount > 0 {
		next = e.base + Time(e.nextOccupied(cur))*wheelSlot
	}
	if len(e.heap) > 0 {
		if top := e.heap[0].at &^ (wheelSlot - 1); top < next {
			next = top
		}
	}
	return next
}

// nextOccupied returns the circular distance (1 to wheelSlots-1) from slot
// cur to the next occupied slot. cur's own bit must be clear and at least
// one other bit set.
func (e *Engine) nextOccupied(cur int) int {
	start := (cur + 1) & wheelMask
	w := start >> 6
	word := e.occupied[w] &^ (1<<(start&63) - 1)
	// At most five word visits: the first word's high part, the other
	// three words, then the first word again for the slots that wrap
	// around before cur.
	for i := 0; i <= len(e.occupied); i++ {
		if word != 0 {
			s := w<<6 | bits.TrailingZeros64(word)
			return (s - cur) & wheelMask
		}
		w = (w + 1) % len(e.occupied)
		word = e.occupied[w]
	}
	panic("sim: wheel count positive but no slot occupied")
}

// heapPush inserts ev into the far-tier 4-ary min-heap.
func (e *Engine) heapPush(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

// heapPop removes and returns the minimum event of the far tier.
func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		first := i*4 + 1
		if first >= len(h) {
			break
		}
		end := first + 4
		if end > len(h) {
			end = len(h)
		}
		min := first
		for c := first + 1; c < end; c++ {
			if eventLess(h[c], h[min]) {
				min = c
			}
		}
		if !eventLess(h[min], h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	e.heap = h
	return top
}

// Ticker invokes fn every period, starting at Now+period, until the
// returned cancel function is called. fn receives the tick time. Periodic
// work (PID loops, UART export windows, thermal integration) is built on
// Ticker.
func (e *Engine) Ticker(period Time, fn func(Time)) (cancel func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Ticker with non-positive period %v", period))
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn(e.now)
		if stopped { // fn may cancel its own ticker
			return
		}
		e.After(period, tick)
	}
	e.After(period, tick)
	return func() { stopped = true }
}
