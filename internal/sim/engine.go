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
// The queue is two value-typed stores, neither of which the garbage
// collector scans. Near events, due less than wheelSpan (64) cycles after
// Now (the timestamp of the last fired event), sit in a timing wheel
// (Varghese & Lauck, SOSP 1987): one slot per cycle of the span, each a FIFO
// of pooled wheelNodes linked by index, and a 64-bit occupancy mask whose
// rotated trailing-zero count finds the next non-empty slot. Far events — a
// 28,000-cycle fault completion, a HIR drain — wait in a 4-ary heap of
// all-scalar heapNodes ordered by (at, seq). Whenever the clock advances,
// every far event now inside the span moves to the tail of its slot before
// any handler runs at the new time. An event that went to the heap for
// cycle c was scheduled while c lay beyond the span, so it precedes every
// event scheduled straight into c's slot, and the heap hands same-cycle far
// events over in seq order: each slot is in (at, seq) order without storing
// a sequence number.
//
// Components register a Handler once (Register) and then schedule by
// HandlerID with two integer payload words (Schedule/ScheduleAfter): zero
// allocations per event, and one dispatch in Step. The clock always skips
// directly to the next scheduled event's timestamp — there is no per-cycle
// ticking anywhere in the engine. The original container/heap
// implementation, with its closure API (At/After), survives as Reference:
// the differential-testing oracle (FuzzEngineEquivalence) and perfbench's
// in-run calibration (`calib.reference_engine_ns`).
package sim

import (
	"fmt"
	"math/bits"
)

// Cycle is a point in simulated time, in GPU core clock cycles.
type Cycle uint64

// CoreMHz is the simulated core clock (Table I: the GTX-480-like 1.4 GHz).
const CoreMHz = 1400

// CyclesPerMicrosecond converts wall-clock microseconds into cycles at
// CoreMHz (20 µs becomes 28,000 cycles).
func CyclesPerMicrosecond(us float64) Cycle {
	return Cycle(us * CoreMHz)
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

// wheelSpan is the number of cycles the timing wheel covers, one slot each;
// it matches the width of the occupancy mask.
const (
	wheelSpan = 64
	wheelMask = wheelSpan - 1
)

// wheelNode is one near event: its payload, its handler, and the index of
// the next node in its slot (or in the free list); -1 ends a list. The
// slot gives the timestamp, so none is stored.
type wheelNode struct {
	a0, a1 uint64
	kind   int32
	next   int32
}

// heapNode is one far event: the ordering key (at, seq) with the payload
// inline. kind indexes the registered-handler table. All fields are
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
	// now is the timestamp of the last fired event. Every pending event
	// lies at or after it; those before now+wheelSpan are in the wheel, the
	// rest in the heap.
	now Cycle

	occupied   uint64           // bit s set when wheel slot s holds events
	head, tail [wheelSpan]int32 // per-slot FIFO ends, valid while occupied
	nodes      []wheelNode      // node pool: wheel slots and the free list
	free       int32            // free-list head, -1 when empty
	near       int              // events in the wheel
	heap       []heapNode       // far events: 4-ary min-heap by (at, seq)
	nextSeq    uint64           // heap tie-break: scheduling order
	handlers   []Handler        // Register'd, indexed by HandlerID
	fired      uint64
	limit      Cycle // 0 means no limit

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
	// A simulation keeps at least one event per warp slot in flight, so the
	// node pool starts at a useful size instead of doubling up from one.
	return &Engine{free: -1, nodes: make([]wheelNode, 0, 1024)}
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Fired returns the total number of events processed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return e.near + len(e.heap) }

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

// push enqueues one event: into its wheel slot when it is due within the
// span, else into the far heap.
func (e *Engine) push(at Cycle, a0, a1 uint64, kind int32) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d before now (%d)", at, e.now))
	}
	if at-e.now < wheelSpan {
		e.pushNear(at, a0, a1, kind)
		return
	}
	// Fields are stored one by one: appending a composite literal copies it
	// through the stack first.
	n := len(e.heap)
	if n == cap(e.heap) {
		e.heap = append(e.heap, heapNode{})
	} else {
		e.heap = e.heap[:n+1]
	}
	h := &e.heap[n]
	h.at, h.seq, h.a0, h.a1, h.kind = at, e.nextSeq, a0, a1, kind
	e.nextSeq++
	e.siftUp(n)
}

// pushNear appends an event to the FIFO of slot at&wheelMask; the caller
// guarantees at lies in [now, now+wheelSpan).
func (e *Engine) pushNear(at Cycle, a0, a1 uint64, kind int32) {
	i := e.free
	if i < 0 {
		e.nodes = append(e.nodes, wheelNode{})
		i = int32(len(e.nodes) - 1)
	} else {
		e.free = e.nodes[i].next
	}
	n := &e.nodes[i]
	n.a0, n.a1, n.kind, n.next = a0, a1, kind, -1
	s := at & wheelMask
	if bit := uint64(1) << s; e.occupied&bit == 0 {
		e.occupied |= bit
		e.head[s] = i
	} else {
		e.nodes[e.tail[s]].next = i
	}
	e.tail[s] = i
	e.near++
}

// migrate moves every far event now inside the span into its slot, in
// (at, seq) order. It runs whenever the clock advances, before any handler
// runs at the new time.
func (e *Engine) migrate() {
	for len(e.heap) > 0 && e.heap[0].at-e.now < wheelSpan {
		h := &e.heap[0]
		e.pushNear(h.at, h.a0, h.a1, h.kind)
		e.popFar()
	}
}

// popFar removes the heap's minimum.
func (e *Engine) popFar() {
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	if last > 1 {
		e.siftDown()
	}
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

// next returns the timestamp of the earliest pending event: the first
// occupied slot from now, or the heap's minimum when the wheel is
// empty (every far event lies beyond every near one).
func (e *Engine) next() (Cycle, bool) {
	if e.occupied != 0 {
		r := bits.RotateLeft64(e.occupied, -int(e.now&wheelMask))
		return e.now + Cycle(bits.TrailingZeros64(r)), true
	}
	if len(e.heap) > 0 {
		return e.heap[0].at, true
	}
	return 0, false
}

// Step fires the next event, advancing the clock directly to its timestamp
// (skip-ahead; no intermediate cycles are visited). It returns false when no
// events remain or the next event lies past the limit. The cancellation poll
// is consulted only when a firing is actually about to happen, so no-op
// Steps at the limit or on a drained queue never consume poll ticks.
func (e *Engine) Step() bool {
	if e.cancelled {
		return false
	}
	at, ok := e.next()
	if !ok || e.limit != 0 && at > e.limit {
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
	if at != e.now {
		e.now = at
		e.migrate()
	}
	s := at & wheelMask
	i := e.head[s]
	n := &e.nodes[i]
	a0, a1, kind := n.a0, n.a1, n.kind
	if n.next < 0 {
		e.occupied &^= uint64(1) << s
	} else {
		e.head[s] = n.next
	}
	n.next = e.free
	e.free = i
	e.near--
	e.fired++
	e.handlers[kind].OnEvent(a0, a1)
	return true
}

// Run fires events until the queue drains or the limit is reached, returning
// the final simulated cycle.
func (e *Engine) Run() Cycle {
	for e.Step() {
	}
	return e.now
}
