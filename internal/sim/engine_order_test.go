package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
	"weak"
)

// TestEngineSameInstantFIFOAcrossTiers proves FIFO-within-instant holds
// when events for the same instant arrive through different tiers: some
// scheduled far ahead (heap, promoted into the wheel when due) and some
// scheduled late (directly into the wheel). Execution must follow
// scheduling order regardless of which tier held each event.
func TestEngineSameInstantFIFOAcrossTiers(t *testing.T) {
	e := NewEngine()
	const T = wheelSpan + 4*wheelSlot + 17
	var got []int
	// Far tier: beyond the wheel horizon at schedule time.
	e.Schedule(T, func() { got = append(got, 0) })
	e.Schedule(T, func() { got = append(got, 1) })
	// An event just before T schedules more work for the exact same
	// instant; by then T is inside the wheel window, so these take the
	// near tier.
	e.Schedule(T-1, func() {
		e.Schedule(T, func() { got = append(got, 2) })
		e.Schedule(T, func() { got = append(got, 3) })
	})
	if err := e.Run(T); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("executed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cross-tier same-instant order = %v, want %v", got, want)
		}
	}
}

// TestEngineSameInstantFIFOEdgePath proves the closure path and the
// allocation-free edge path share one sequence counter: interleaved
// Schedule and ScheduleEdge calls for one instant run in call order.
type orderRecorder struct{ got *[]int }

func (r *orderRecorder) FireEdge(arg uint32) { *r.got = append(*r.got, int(arg)) }

func TestEngineSameInstantFIFOEdgePath(t *testing.T) {
	e := NewEngine()
	var got []int
	rec := e.Bind(&orderRecorder{got: &got})
	e.Schedule(100, func() { got = append(got, 0) })
	e.ScheduleEdge(100, rec, 1)
	e.Schedule(100, func() { got = append(got, 2) })
	e.ScheduleEdge(100, rec, 3)
	if err := e.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("mixed-path same-instant order = %v, want ascending", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("executed %d events, want 4", len(got))
	}
}

// TestEngineStopResumeMidWheel stops the engine between events that share
// a wheel window (and partly share an instant) and checks the remainder
// stays queued and resumes in exactly the original order.
func TestEngineStopResumeMidWheel(t *testing.T) {
	e := NewEngine()
	var got []int
	add := func(id int) func() { return func() { got = append(got, id) } }
	const T = 3 * wheelSlot / 2 // mid-wheel, not slot-aligned
	e.Schedule(T, add(0))
	e.Schedule(T, func() { got = append(got, 1); e.Stop() })
	e.Schedule(T, add(2))
	e.Schedule(T+1, add(3))
	e.Schedule(T+wheelSlot, add(4)) // next window of the same wheel

	if err := e.Run(T + 2*wheelSlot); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if len(got) != 2 {
		t.Fatalf("executed %v before stop, want [0 1]", got)
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending() = %d after stop, want 3", e.Pending())
	}
	if err := e.Run(T + 2*wheelSlot); err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("resumed order = %v, want %v", got, want)
		}
	}
}

// refEngine is the pre-rework scheduler semantics distilled to their
// definition: execute pending events in strictly increasing (at, seq)
// order, where seq is assignment order. The differential test replays an
// identical randomized workload through refEngine and Engine and demands
// identical execution order, proving the two-tier scheduler preserves the
// old ordering exactly.
type refEngine struct {
	now     Time
	seq     uint64
	pending []refEvent
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func (r *refEngine) schedule(at Time, id int) {
	r.seq++
	r.pending = append(r.pending, refEvent{at: at, seq: r.seq, id: id})
}

func (r *refEngine) run(spawn func(id int, now Time, schedule func(d Time, id int))) []int {
	var order []int
	for len(r.pending) > 0 {
		min := 0
		for i := 1; i < len(r.pending); i++ {
			p, q := r.pending[i], r.pending[min]
			if p.at < q.at || (p.at == q.at && p.seq < q.seq) {
				min = i
			}
		}
		ev := r.pending[min]
		r.pending[min] = r.pending[len(r.pending)-1]
		r.pending = r.pending[:len(r.pending)-1]
		r.now = ev.at
		order = append(order, ev.id)
		spawn(ev.id, r.now, func(d Time, id int) { r.schedule(r.now+d, id) })
	}
	return order
}

// workload is a deterministic random event tree: node i, when executed,
// schedules its children. A child either sits a fixed delay after its
// parent or, when slot ≥ 0, lands on that wheel slot `delay` (whole wheel
// spans) past the parent's rotation — slots are absolute, so this is the
// only way to aim at one.
type workloadNode struct {
	children []workloadChild
}

type workloadChild struct {
	delay Time
	slot  int
	id    int
}

// after returns the child's delay from a parent executing at now.
func (c workloadChild) after(now Time) Time {
	if c.slot < 0 {
		return c.delay
	}
	return now&^(wheelSpan-1) + c.delay + Time(c.slot)*wheelSlot + 3 - now
}

// denseDelays mix the wheel's sweet spot (sub-slot, multi-slot) with
// far-horizon heap delays and plenty of zero/equal delays to force
// same-instant ties.
var denseDelays = []Time{
	0, 1, 13, 100, // same-instant and sub-slot
	2000, 2000, 8192, 8193, // slot-boundary neighbours
	50_000, 50_000, 150_000, // multi-slot
	wheelSpan - 1, wheelSpan, wheelSpan + 1, // horizon boundary
	10_000_000, 100_000_000, // deep heap
}

// sparseDelays leave gaps of one to three wheel spans, so the drain loop
// must jump across empty windows, plus a few short delays that keep
// several slots occupied at once.
var sparseDelays = []Time{
	0, 13, 8193,
	wheelSpan, wheelSpan + 5, 2*wheelSpan - 1,
	2*wheelSpan + 63*wheelSlot, 3 * wheelSpan, 3*wheelSpan + wheelSlot/2,
}

// edgeSlots are the slot targets of the sparse workload: both ends of
// every bitmap word, so the next-slot search crosses word boundaries and
// wraps around the wheel.
var edgeSlots = []int{0, 63, 64, 127, 128, 255}

func buildWorkload(rng *rand.Rand, n int, sparse bool) []workloadNode {
	nodes := make([]workloadNode, n)
	next := 1
	for i := 0; i < n && next < n; i++ {
		kids := rng.Intn(4)
		if kids == 0 && next == i+1 {
			kids = 1 // node i is the last one reachable: keep the tree growing
		}
		for k := 0; k < kids && next < n; k++ {
			c := workloadChild{slot: -1, id: next}
			switch {
			case !sparse:
				c.delay = denseDelays[rng.Intn(len(denseDelays))]
			case rng.Intn(2) == 0:
				c.delay = sparseDelays[rng.Intn(len(sparseDelays))]
			default:
				c.delay = Time(1+rng.Intn(3)) * wheelSpan
				c.slot = edgeSlots[rng.Intn(len(edgeSlots))]
			}
			nodes[i].children = append(nodes[i].children, c)
			next++
		}
	}
	return nodes
}

// referenceOrder is the workload's execution order on refEngine, starting
// at time start.
func referenceOrder(nodes []workloadNode, start Time) []int {
	ref := &refEngine{now: start}
	ref.schedule(start, 0)
	return ref.run(func(id int, now Time, schedule func(Time, int)) {
		for _, c := range nodes[id].children {
			schedule(c.after(now), c.id)
		}
	})
}

// runWorkload replays nodes on e from time Now, alternating closure
// events with edge events spread over several bound targets, and returns
// the execution order. The event with id stopAt (if any) calls Stop.
// drive runs the engine.
//
// A replay that drains the engine must also leave the closure table
// consistent: every closure index freed, and fewer indices than closures
// scheduled — indices were freed and reused while other events were
// still pending.
func runWorkload(t *testing.T, e *Engine, nodes []workloadNode, stopAt int, drive func() error) []int {
	t.Helper()
	var order []int
	var exec func(id int)
	var sinks [3]Bound
	for i := range sinks {
		sinks[i] = e.Bind(&workloadSink{fire: func(id int) { exec(id) }})
	}
	closures := 1
	exec = func(id int) {
		order = append(order, id)
		if id == stopAt {
			e.Stop()
		}
		for _, c := range nodes[id].children {
			c := c
			if c.id%2 == 0 {
				closures++
				e.After(c.after(e.Now()), func() { exec(c.id) })
			} else {
				e.AfterEdge(c.after(e.Now()), sinks[c.id/2%len(sinks)], uint32(c.id))
			}
		}
	}
	e.Schedule(e.Now(), func() { exec(0) })
	if err := drive(); err != nil {
		t.Fatalf("drive: %v", err)
	}
	if e.Pending() == 0 {
		if len(e.freeFns) != len(e.fns) {
			t.Fatalf("idle engine: %d of %d closure indices free", len(e.freeFns), len(e.fns))
		}
		for i, fn := range e.fns {
			if fn != nil {
				t.Fatalf("idle engine still holds closure %d", i)
			}
		}
		if len(e.fns) >= closures {
			t.Fatalf("%d closure indices for %d closures: no index was reused", len(e.fns), closures)
		}
	}
	return order
}

// runChunks drives e the way Testbed.Run does: Run(until) over a rising
// horizon in random chunks, from sub-slot to multi-span, until idle. A
// Stop resumes with the same horizon; it must happen exactly stops times.
func runChunks(e *Engine, rng *rand.Rand, stops int) func() error {
	chunks := []Time{1, 100, wheelSlot - 1, wheelSlot, 5 * wheelSlot, wheelSpan, 3*wheelSpan + 7, 10 * Millisecond}
	return func() error {
		until := e.Now()
		for e.Pending() > 0 {
			until += chunks[rng.Intn(len(chunks))]
			err := e.Run(until)
			if err == ErrStopped {
				stops--
				err = e.Run(until)
			}
			if err != nil {
				return err
			}
			if e.Now() != until {
				return fmt.Errorf("Run(%v) left the clock at %v", until, e.Now())
			}
		}
		if stops != 0 {
			return fmt.Errorf("%d Stop calls missing", stops)
		}
		return nil
	}
}

// TestEngineDifferentialOrderingVsReference replays dense and sparse
// random workloads through refEngine and Engine and demands identical
// execution order: under RunUntilIdle, on a Reset engine, and under
// chunked Run(until) calls with a Stop/resume.
func TestEngineDifferentialOrderingVsReference(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		for _, seed := range []int64{1, 7, 42, 1234} {
			rng := rand.New(rand.NewSource(seed))
			nodes := buildWorkload(rng, 600, sparse)

			refOrder := referenceOrder(nodes, 0)
			check := func(how string, order []int) {
				t.Helper()
				if len(order) != len(refOrder) {
					t.Fatalf("sparse=%v seed %d %s: executed %d events, reference executed %d",
						sparse, seed, how, len(order), len(refOrder))
				}
				for i := range refOrder {
					if order[i] != refOrder[i] {
						t.Fatalf("sparse=%v seed %d %s: execution order diverges at %d: engine %d, reference %d",
							sparse, seed, how, i, order[i], refOrder[i])
					}
				}
			}

			e := NewEngine()
			check("RunUntilIdle", runWorkload(t, e, nodes, -1, e.RunUntilIdle))
			windows := e.Windows()
			if windows > e.Executed() {
				t.Fatalf("sparse=%v seed %d: %d windows for %d events", sparse, seed, windows, e.Executed())
			}

			// Abandon a replay at a Stop, with events still queued in both
			// tiers; the reset engine must then replay the workload
			// exactly, down to the windows it visits.
			stopAt := refOrder[len(refOrder)/3]
			e.Reset()
			runWorkload(t, e, nodes, stopAt, func() error {
				if err := e.RunUntilIdle(); err != ErrStopped {
					return fmt.Errorf("RunUntilIdle = %v, want ErrStopped", err)
				}
				return nil
			})
			e.Reset()
			check("Reset+RunUntilIdle", runWorkload(t, e, nodes, -1, e.RunUntilIdle))
			if e.Windows() != windows {
				t.Fatalf("sparse=%v seed %d: reset engine drained %d windows, fresh engine %d",
					sparse, seed, e.Windows(), windows)
			}

			// Chunked Run(until) with one Stop/resume, on the reset engine
			// and then again after an idle gap, so the replay starts
			// mid-rotation.
			e.Reset()
			check("Reset+Run chunks", runWorkload(t, e, nodes, stopAt, runChunks(e, rng, 1)))
			if err := e.Run(e.Now() + 5*wheelSpan + 17); err != nil {
				t.Fatal(err)
			}
			refOrder = referenceOrder(nodes, e.Now())
			check("Run chunks after idle gap", runWorkload(t, e, nodes, stopAt, runChunks(e, rng, 1)))
		}
	}
}

type workloadSink struct{ fire func(id int) }

func (s *workloadSink) FireEdge(arg uint32) { s.fire(int(arg)) }

// mustPanic fails t unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestEngineEdgePathValidation mirrors the closure path's contract checks.
func TestEngineEdgePathValidation(t *testing.T) {
	e := NewEngine()
	mustPanic(t, "ScheduleEdge with the zero Bound", func() { e.ScheduleEdge(0, Bound{}, 0) })
	mustPanic(t, "Bind(nil)", func() { e.Bind(nil) })
	sink := e.Bind(&workloadSink{fire: func(int) {}})
	mustPanic(t, "ScheduleEdge with the zero Bound after a Bind", func() { e.ScheduleEdge(0, Bound{}, 0) })
	mustPanic(t, "AfterEdge with negative delay", func() { e.AfterEdge(-1, sink, 0) })
	e.Schedule(100, func() {})
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "ScheduleEdge in the past", func() { e.ScheduleEdge(50, sink, 0) })
	if e.Pending() != 0 {
		t.Errorf("rejected schedules left %d events pending", e.Pending())
	}
}

// TestEngineStaleHandleRejected: a handle is good only on the engine that
// bound it, and only until that engine's next Reset. After a Reset the
// same table index names whatever target is bound next, so a stale
// handle must panic rather than fire it.
func TestEngineStaleHandleRejected(t *testing.T) {
	var fired []string
	target := func(name string) EdgeTarget {
		return &workloadSink{fire: func(int) { fired = append(fired, name) }}
	}
	e, other := NewEngine(), NewEngine()
	old := e.Bind(target("old"))
	foreign := other.Bind(target("foreign"))
	if !e.Holds(old) || e.Holds(foreign) || e.Holds(Bound{}) {
		t.Fatal("Holds misreports handle ownership")
	}
	mustPanic(t, "ScheduleEdge with another engine's handle", func() { e.ScheduleEdge(0, foreign, 0) })

	e.Reset()
	fresh := e.Bind(target("new"))
	if fresh.ref != old.ref {
		t.Fatalf("rebinding after Reset took index %d, want the stale handle's %d", fresh.ref, old.ref)
	}
	if e.Holds(old) {
		t.Error("handle from before Reset still held")
	}
	mustPanic(t, "ScheduleEdge with a pre-Reset handle", func() { e.ScheduleEdge(0, old, 0) })
	mustPanic(t, "AfterEdge with a pre-Reset handle", func() { e.AfterEdge(0, old, 0) })
	e.ScheduleEdge(0, fresh, 0)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != "new" {
		t.Errorf("fired %v, want [new]", fired)
	}
}

// TestEngineResetReleasesPayloads: Reset with events still queued in
// both tiers must leave no bound target and no closure reachable from
// the engine.
func TestEngineResetReleasesPayloads(t *testing.T) {
	type payload struct{ pad [64]byte }
	e := NewEngine()
	var weaks []weak.Pointer[payload]
	for i := 0; i < 4; i++ {
		tp, cp := new(payload), new(payload)
		weaks = append(weaks, weak.Make(tp), weak.Make(cp))
		b := e.Bind(&workloadSink{fire: func(int) { _ = tp.pad }})
		e.ScheduleEdge(Time(i)*wheelSpan, b, 0)
		e.Schedule(Time(i)*wheelSpan+1, func() { _ = cp.pad })
	}
	if err := e.Run(wheelSpan / 2); err != nil { // fire one of each, free one closure index
		t.Fatal(err)
	}
	e.Reset()
	runtime.GC()
	for i, w := range weaks {
		if w.Value() != nil {
			t.Errorf("payload %d still reachable after Reset", i)
		}
	}
	if e.Pending() != 0 || len(e.targets) != 0 || len(e.fns) != 0 || len(e.freeFns) != 0 {
		t.Errorf("Reset left pending=%d targets=%d fns=%d free=%d",
			e.Pending(), len(e.targets), len(e.fns), len(e.freeFns))
	}
	runtime.KeepAlive(e)
}

// TestEventLayoutPointerFree pins the queued event at 24 bytes with no
// pointer-bearing field, so the garbage collector never scans the queues
// and moving an event runs no write barrier.
func TestEventLayoutPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 24 {
		t.Errorf("event is %d bytes, want 24", size)
	}
	typ := reflect.TypeOf(event{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Int64, reflect.Uint64, reflect.Uint32:
		default:
			t.Errorf("event.%s has kind %s; want a pointer-free integer", f.Name, f.Type.Kind())
		}
	}
}

// BenchmarkEngineSchedule measures the raw schedule/execute cycle on a
// near-horizon workload — the wheel's fast path.
func BenchmarkEngineSchedule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j)*50, func() {})
		}
		if err := e.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineScheduleEdge measures the allocation-free fast path.
func BenchmarkEngineScheduleEdge(b *testing.B) {
	target := &workloadSink{fire: func(int) {}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		sink := e.Bind(target)
		for j := 0; j < 1000; j++ {
			e.ScheduleEdge(Time(j)*50, sink, 0)
		}
		if err := e.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTicker measures periodic work (the control-loop shape).
func BenchmarkEngineTicker(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		cancel := e.Ticker(100*Microsecond, func(Time) {})
		if err := e.Run(100 * Millisecond); err != nil {
			b.Fatal(err)
		}
		cancel()
	}
}

// BenchmarkEngineMixedHorizon measures the realistic print shape: dense
// near-horizon pulse edges riding on sparse far-horizon periodics, which
// exercises wheel/heap promotion.
func BenchmarkEngineMixedHorizon(b *testing.B) {
	target := &workloadSink{fire: func(int) {}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		sink := e.Bind(target)
		// Far tier: periodic exports every 100 ms over 1 s.
		for j := Time(1); j <= 10; j++ {
			e.Schedule(j*100*Millisecond, func() {})
		}
		// Near tier: a self-rescheduling 20 kHz pulse train with 2 µs
		// falling edges, like a STEP line at the paper's envelope.
		var rise func()
		n := 0
		rise = func() {
			n++
			e.AfterEdge(2*Microsecond, sink, 0)
			if n < 20_000 {
				e.After(50*Microsecond, rise)
			}
		}
		e.Schedule(0, rise)
		if err := e.Run(1100 * Millisecond); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(e.Executed()), "events/op")
		b.ReportMetric(float64(e.Windows()), "windows/op")
	}
}
