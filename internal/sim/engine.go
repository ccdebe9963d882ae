// Package sim provides a small deterministic discrete-event simulation
// engine: a virtual clock measured in GPU core cycles and an event queue
// ordered by (time, sequence). All higher-level components (SMs, the fault
// handler, HIR transfers) schedule work through an Engine.
//
// Determinism: events scheduled for the same cycle fire in scheduling order
// (stable FIFO tie-break), so a simulation with the same inputs always
// produces the same result regardless of map iteration order or host timing.
//
// # Hot-path layout (DESIGN.md §11)
//
// The queue is a value-typed struct-of-arrays store. Events live in a 4-ary
// heap of all-scalar heapNode values — timestamp, FIFO sequence, and the two
// payload words inline — so heap sifts never chase pointers, never trigger
// write barriers, and the whole queue is invisible to the garbage collector.
// Components register a Handler once (Register) and then schedule by
// HandlerID with two integer payload words (Schedule/ScheduleAfter): zero
// allocations per event, and one dispatch in Step. The clock always skips
// directly to the next scheduled event's timestamp — there is no per-cycle
// ticking anywhere in the engine. The previous container/heap
// implementation, with its closure API (At/After), survives as Reference:
// the differential-testing oracle (FuzzEngineEquivalence) and perfbench's
// in-run calibration (`calib.reference_engine_ns`).
package sim

import "fmt"

// Cycle is a point in simulated time, in GPU core clock cycles.
type Cycle uint64

// CyclesPerMicrosecond converts wall-clock microseconds into cycles at the
// given core frequency in MHz (e.g. 1400 MHz for the paper's GTX-480-like
// configuration: 20 µs becomes 28,000 cycles).
func CyclesPerMicrosecond(us float64, coreMHz float64) Cycle {
	return Cycle(us * coreMHz)
}

// Handler receives typed events. Registering a handler once and scheduling
// by its HandlerID keeps the hot path allocation-free: the two uint64
// payload words carry whatever the component needs (an SM index, a trace
// sequence number, a page number).
type Handler interface {
	OnEvent(a0, a1 uint64)
}

// HandlerID names a registered Handler on its engine.
type HandlerID int32

// heapNode is one 4-ary-heap element: the ordering key (at, seq) with the
// payload inline. kind indexes the registered-handler table. All fields are
// scalars, so the heap needs no write barriers and is never scanned by the
// GC.
type heapNode struct {
	at     Cycle
	seq    uint64
	a0, a1 uint64
	kind   int32
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now      Cycle
	nextSeq  uint64
	heap     []heapNode // 4-ary min-heap ordered by (at, seq)
	handlers []Handler  // Register'd, indexed by HandlerID
	fired    uint64
	limit    Cycle // 0 means no limit

	// Cancellation: poll is consulted once every pollEvery fired events (a
	// single decrement + compare on the hot path), so an external signal —
	// a context, a client disconnect — can stop a run without the engine
	// importing context or the callers paying a per-event check. The poll
	// runs after the queue and limit checks: a drained or limit-parked
	// engine never consumes poll ticks on no-op Steps.
	poll      func() bool
	pollEvery uint64
	pollLeft  uint64
	cancelled bool
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Fired returns the total number of events processed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return len(e.heap) }

// SetLimit installs a hard ceiling on simulated time; Run stops (without
// firing) events scheduled after the limit. A limit of 0 removes the ceiling.
func (e *Engine) SetLimit(limit Cycle) { e.limit = limit }

// SetCancel installs a cancellation poll, consulted once every `every` fired
// events. When poll returns true the engine stops firing events permanently
// and Cancelled reports true. A nil poll (or every == 0) removes the hook.
// The poll must be cheap and must not mutate simulation state; determinism
// is unaffected for runs that are never cancelled, and a cancelled run stops
// at an event boundary, so partial results remain internally consistent.
func (e *Engine) SetCancel(every uint64, poll func() bool) {
	if poll == nil || every == 0 {
		e.poll, e.pollEvery, e.pollLeft = nil, 0, 0
		return
	}
	e.poll = poll
	e.pollEvery = every
	e.pollLeft = every
}

// Cancelled reports whether a cancellation poll stopped the engine.
func (e *Engine) Cancelled() bool { return e.cancelled }

// Register interns a handler and returns its id for Schedule. Handlers are
// expected to be a few long-lived values registered at construction time;
// registering is not a hot-path operation.
func (e *Engine) Register(h Handler) HandlerID {
	if h == nil {
		panic("sim: Register(nil) handler")
	}
	e.handlers = append(e.handlers, h)
	return HandlerID(len(e.handlers) - 1)
}

// push appends an ordering node and restores the heap.
func (e *Engine) push(at Cycle, a0, a1 uint64, kind int32) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d before now (%d)", at, e.now))
	}
	if len(e.heap) == cap(e.heap) {
		// Grow straight to a useful size: a simulation's queue depth is at
		// least one event per warp slot, so the doubling ramp from an empty
		// slice (1, 2, 4, ...) would just be ten copies on the way to 1024.
		const minHeapCap = 1024
		newCap := 2 * cap(e.heap)
		if newCap < minHeapCap {
			newCap = minHeapCap
		}
		//lint:ignore hpelint/hotalloc amortized heap growth: capacity doubles from a 1024 floor, so copies are O(log n) overall
		grown := make([]heapNode, len(e.heap), newCap)
		copy(grown, e.heap)
		e.heap = grown
	}
	e.heap = append(e.heap, heapNode{at: at, seq: e.nextSeq, a0: a0, a1: a1, kind: kind})
	e.nextSeq++
	e.siftUp(len(e.heap) - 1)
}

func nodeLess(a, b *heapNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores heap order from child i toward the root (4-ary: the parent
// of i is (i-1)/4).
func (e *Engine) siftUp(i int) {
	h := e.heap
	n := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !nodeLess(&n, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = n
}

// siftDown restores heap order from the root after a pop: children of i are
// 4i+1..4i+4. Four-way fan-out halves the tree depth of a binary heap,
// cutting the cache lines touched per pop. The sift is bottom-up (Wegener):
// the hole walks to the bottom along min-child links without comparing
// against the replacement node, then the replacement bubbles up — the
// replacement came from the heap's last position, so it almost always
// belongs near the bottom, and skipping the per-level replacement compare
// saves a quarter of the comparisons on the dominant down path.
func (e *Engine) siftDown() {
	h := e.heap
	n := h[0]
	i := 0
	size := len(h)
	for {
		c := i<<2 + 1
		if c >= size {
			break
		}
		end := c + 4
		if end > size {
			end = size
		}
		best := c
		for k := c + 1; k < end; k++ {
			if nodeLess(&h[k], &h[best]) {
				best = k
			}
		}
		h[i] = h[best]
		i = best
	}
	for i > 0 {
		p := (i - 1) >> 2
		if !nodeLess(&n, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = n
}

// Schedule enqueues an event for a registered handler at the given absolute
// cycle with two payload words. Scheduling in the past (before Now) is an
// error and panics: it would silently reorder causality.
func (e *Engine) Schedule(at Cycle, h HandlerID, a0, a1 uint64) {
	e.push(at, a0, a1, int32(h))
}

// ScheduleAfter enqueues a handler event delay cycles from now.
func (e *Engine) ScheduleAfter(delay Cycle, h HandlerID, a0, a1 uint64) {
	e.push(e.now+delay, a0, a1, int32(h))
}

// Step fires the next event, advancing the clock directly to its timestamp
// (skip-ahead; no intermediate cycles are visited). It returns false when no
// events remain or the next event lies past the limit. The cancellation poll
// is consulted only when a firing is actually about to happen, so no-op
// Steps at the limit or on a drained queue never consume poll ticks.
func (e *Engine) Step() bool {
	if e.cancelled || len(e.heap) == 0 {
		return false
	}
	next := e.heap[0]
	if e.limit != 0 && next.at > e.limit {
		return false
	}
	if e.poll != nil {
		e.pollLeft--
		if e.pollLeft == 0 {
			e.pollLeft = e.pollEvery
			if e.poll() {
				e.cancelled = true
				return false
			}
		}
	}
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	if last > 1 {
		e.siftDown()
	}
	e.now = next.at
	e.fired++
	e.handlers[next.kind].OnEvent(next.a0, next.a1)
	return true
}

// Run fires events until the queue drains or the limit is reached, returning
// the final simulated cycle.
func (e *Engine) Run() Cycle {
	for e.Step() {
	}
	return e.now
}

// RunUntil fires events with timestamps <= until, advancing the clock to
// exactly until when the queue drains earlier.
func (e *Engine) RunUntil(until Cycle) {
	for len(e.heap) > 0 && e.heap[0].at <= until {
		if !e.Step() {
			break
		}
	}
	if e.now < until {
		e.now = until
	}
}
