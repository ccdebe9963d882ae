package sim

import (
	"container/heap"
	"fmt"
)

// Reference is the pre-rewrite engine: a container/heap of per-event
// allocated *refEvent pointers. It is kept for two jobs only and is not used
// by the simulator:
//
//   - FuzzEngineEquivalence drives Engine and Reference with identical
//     randomized schedules and asserts identical fire order, Now, Fired,
//     Pending and cancellation behaviour — the differential proof that the
//     struct-of-arrays rewrite preserved the determinism contract.
//   - perfbench times it on the same 1000-event schedule shape as the
//     engine (`calib.reference_engine_ns` beside `sim.engine_ns_per_event`):
//     no program change moves it, so a shift in it is host drift.
//
// The cancellation poll follows the fixed semantics (poll after the queue
// and limit checks): the Reference is the oracle for the current contract,
// not a museum copy of the old poll-ordering bug.
type Reference struct {
	now     Cycle
	nextSeq uint64
	queue   refHeap
	fired   uint64
	limit   Cycle

	poll      func() bool
	pollEvery uint64
	pollLeft  uint64
	cancelled bool
}

// refEvent is a unit of scheduled work in the reference implementation.
type refEvent struct {
	at   Cycle
	seq  uint64
	fire func()
}

// refHeap implements container/heap ordered by (at, seq).
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// NewReference returns an empty reference engine at cycle 0.
func NewReference() *Reference {
	return &Reference{}
}

// Now returns the current simulated cycle.
func (e *Reference) Now() Cycle { return e.now }

// Fired returns the total number of events processed so far.
func (e *Reference) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued.
func (e *Reference) Pending() int { return len(e.queue) }

// SetLimit installs a hard ceiling on simulated time.
func (e *Reference) SetLimit(limit Cycle) { e.limit = limit }

// SetCancel installs a cancellation poll (see Engine.SetCancel).
func (e *Reference) SetCancel(every uint64, poll func() bool) {
	if poll == nil || every == 0 {
		e.poll, e.pollEvery, e.pollLeft = nil, 0, 0
		return
	}
	e.poll = poll
	e.pollEvery = every
	e.pollLeft = every
}

// Cancelled reports whether a cancellation poll stopped the engine.
func (e *Reference) Cancelled() bool { return e.cancelled }

// At schedules fn to run at the given absolute cycle.
func (e *Reference) At(at Cycle, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d before now (%d)", at, e.now))
	}
	ev := &refEvent{at: at, seq: e.nextSeq, fire: fn}
	e.nextSeq++
	heap.Push(&e.queue, ev)
}

// After schedules fn to run delay cycles from now.
func (e *Reference) After(delay Cycle, fn func()) {
	e.At(e.now+delay, fn)
}

// Step fires the next event, advancing the clock to its timestamp.
func (e *Reference) Step() bool {
	if e.cancelled || len(e.queue) == 0 {
		return false
	}
	next := e.queue[0]
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
	heap.Pop(&e.queue)
	e.now = next.at
	e.fired++
	next.fire()
	return true
}

// Run fires events until the queue drains or the limit is reached.
func (e *Reference) Run() Cycle {
	for e.Step() {
	}
	return e.now
}
