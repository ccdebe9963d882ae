package sim

import (
	"fmt"
	"testing"
)

// scheduler is the surface FuzzEngineEquivalence drives on both
// implementations. Events are enqueued through the per-side hooks of
// fuzzRun: registered handlers on the Engine, closures on the Reference.
type scheduler interface {
	Step() bool
	Run() Cycle
	SetLimit(Cycle)
	SetCancel(uint64, func() bool)
	Cancelled() bool
	Now() Cycle
	Fired() uint64
	Pending() int
}

// fuzzOp is one decoded instruction of the equivalence program.
type fuzzOp struct {
	kind  byte
	param byte
}

// decodeProgram turns the fuzz input into a bounded op list.
func decodeProgram(data []byte) []fuzzOp {
	const maxOps = 256
	var ops []fuzzOp
	for i := 0; i+1 < len(data) && len(ops) < maxOps; i += 2 {
		ops = append(ops, fuzzOp{kind: data[i] % 9, param: data[i+1]})
	}
	return ops
}

// fuzzRun is one execution of a decoded program: the fire log (event id ++
// low clock bits), the remaining event budget, and the poll count.
type fuzzRun struct {
	s      scheduler
	log    []uint64
	nextID uint64
	budget int
	polls  int
	// schedule enqueues a logging event; when delay > 0 its firing also
	// emits a follow-up delay cycles later (a cascade).
	schedule func(at Cycle, id uint64, delay Cycle)
}

// fire logs event id at the current clock and, for a cascade, emits the
// follow-up. An engine that fires more events than were scheduled (a stale
// node, say) fails here instead of running on.
func (r *fuzzRun) fire(id uint64, delay Cycle) {
	if uint64(len(r.log)) >= r.nextID-1 {
		panic(fmt.Sprintf("sim: event %d fired beyond the %d scheduled", id, r.nextID-1))
	}
	r.log = append(r.log, id<<16|uint64(r.s.Now())&0xffff)
	if delay > 0 {
		r.emit(r.s.Now()+delay, 0)
	}
}

// emit enqueues one event while the budget lasts.
func (r *fuzzRun) emit(at, delay Cycle) {
	if r.budget <= 0 {
		return
	}
	r.budget--
	id := r.nextID
	r.nextID++
	r.schedule(at, id, delay)
}

// fuzzHandler is the Engine side's event: a0 is the event id, a1 the
// cascade delay.
type fuzzHandler struct{ r *fuzzRun }

func (h fuzzHandler) OnEvent(a0, a1 uint64) { h.r.fire(a0, Cycle(a1)) }

// farDelay maps a parameter onto the delays around the wheel's edge:
// wheelSpan−1, wheelSpan and wheelSpan+1 cycles, or a fault-service-sized
// 28,000 cycles and more. Together they reach the far heap, its migration
// into the wheel, and the boundary between the two.
func farDelay(param byte) Cycle {
	switch param % 4 {
	case 0:
		return wheelSpan - 1
	case 1:
		return wheelSpan
	case 2:
		return wheelSpan + 1
	}
	return 28000 + Cycle(param)
}

// runProgram executes the decoded program through r and returns the fire
// log and the number of cancellation polls.
func runProgram(r *fuzzRun, ops []fuzzOp) ([]uint64, int) {
	r.nextID, r.budget = 1, 512
	s := r.s
	for _, op := range ops {
		d := Cycle(op.param % 64)
		switch op.kind {
		case 0, 1:
			r.emit(s.Now()+d, 0)
		case 2: // cascade: the fired event schedules a follow-up
			r.emit(s.Now()+d, Cycle(op.param%16+1))
		case 3:
			if op.param == 0 {
				s.SetLimit(0)
			} else {
				s.SetLimit(s.Now() + Cycle(op.param)*8)
			}
		case 4:
			for i := 0; i < int(op.param%8)+1; i++ {
				if !s.Step() {
					break
				}
			}
		case 5: // cancel at a random event boundary
			every := uint64(op.param%8 + 1)
			trip := int(op.param % 16)
			s.SetCancel(every, func() bool {
				r.polls++
				return r.polls > trip
			})
		case 6:
			s.SetCancel(0, nil)
		case 7: // an event at the wheel's edge or far beyond it
			r.emit(s.Now()+farDelay(op.param), 0)
		case 8: // a near event whose firing schedules a far follow-up
			r.emit(s.Now()+d, farDelay(op.param))
		}
	}
	s.SetLimit(0)
	s.Run()
	return r.log, r.polls
}

// FuzzEngineEquivalence drives the struct-of-arrays Engine and the
// container/heap Reference with the same randomized schedule — Handler
// events on the Engine, closures on the Reference, cascades, SetLimit,
// partial Steps, and cancellation at random event boundaries — and requires
// identical fire order, clocks, fired counts, pending counts, poll counts
// and cancellation status. Ops 7 and 8 schedule around and far past the timing wheel's span,
// so the far heap and its migration into the wheel are on the checked path.
// This is the differential proof that the hot-path rewrite preserved the
// determinism contract. The seed corpus runs on every plain `go test`
// (and through `make fuzz-seed`).
func FuzzEngineEquivalence(f *testing.F) {
	f.Add([]byte{0, 10, 0, 5, 0, 5, 1, 20})                       // plain schedules, FIFO ties
	f.Add([]byte{2, 9, 2, 33, 0, 1, 4, 3})                        // cascades + partial steps
	f.Add([]byte{0, 50, 3, 2, 0, 40, 4, 7, 3, 0})                 // limit parks, then released
	f.Add([]byte{0, 8, 5, 19, 0, 9, 0, 11, 0, 13})                // cancellation mid-run
	f.Add([]byte{5, 2, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 3, 1}) // tight cancel + limit
	f.Add([]byte{2, 255, 2, 254, 2, 253, 5, 128, 0, 0})           // deep cascades
	// Far path: events at span−1, span and span+1 cycles and 28,000+
	// cycles out, interleaved with near ones, so far events migrate into
	// slots that near events scheduled later also fill.
	f.Add([]byte{7, 0, 7, 1, 7, 2, 7, 3, 0, 63, 0, 0, 4, 1, 0, 62, 8, 1, 4, 2, 8, 3, 0, 1})
	f.Add([]byte{8, 0, 8, 1, 8, 2, 2, 70, 7, 7, 4, 8, 7, 4, 7, 5, 7, 6, 4, 8, 0, 3})
	// A far event for cycle 64, then, one cycle later, a near event for the
	// same cycle: the far one was scheduled first and must fire first.
	f.Add([]byte{7, 1, 0, 1, 4, 0, 0, 63})
	// A limit parks the clock short of the far events; more are scheduled
	// at the wheel's edge before the limit lifts.
	f.Add([]byte{0, 50, 3, 2, 7, 0, 7, 1, 7, 2, 0, 5, 3, 0, 7, 3, 4, 2, 0, 0})
	f.Add([]byte{0, 10, 4, 1, 0, 40, 3, 3, 0, 0, 7, 0, 8, 5, 7, 2, 3, 0, 7, 1, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeProgram(data)

		eng := NewEngine()
		engRun := &fuzzRun{s: eng}
		hid := eng.Register(fuzzHandler{engRun})
		engRun.schedule = func(at Cycle, id uint64, delay Cycle) {
			eng.Schedule(at, hid, id, uint64(delay))
		}
		engLog, engPolls := runProgram(engRun, ops)

		ref := NewReference()
		refRun := &fuzzRun{s: ref}
		refRun.schedule = func(at Cycle, id uint64, delay Cycle) {
			ref.At(at, func() { refRun.fire(id, delay) })
		}
		refLog, refPolls := runProgram(refRun, ops)

		if len(engLog) != len(refLog) {
			t.Fatalf("fire counts diverge: engine %d, reference %d", len(engLog), len(refLog))
		}
		for i := range engLog {
			if engLog[i] != refLog[i] {
				t.Fatalf("fire order diverges at event %d: engine (id=%d, t=%d), reference (id=%d, t=%d)",
					i, engLog[i]>>16, engLog[i]&0xffff, refLog[i]>>16, refLog[i]&0xffff)
			}
		}
		if eng.Now() != ref.Now() {
			t.Fatalf("Now diverges: engine %d, reference %d", eng.Now(), ref.Now())
		}
		if eng.Fired() != ref.Fired() {
			t.Fatalf("Fired diverges: engine %d, reference %d", eng.Fired(), ref.Fired())
		}
		if eng.Pending() != ref.Pending() {
			t.Fatalf("Pending diverges: engine %d, reference %d", eng.Pending(), ref.Pending())
		}
		if eng.Cancelled() != ref.Cancelled() {
			t.Fatalf("Cancelled diverges: engine %v, reference %v", eng.Cancelled(), ref.Cancelled())
		}
		if engPolls != refPolls {
			t.Fatalf("poll counts diverge: engine %d, reference %d", engPolls, refPolls)
		}
	})
}
