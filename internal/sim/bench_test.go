package sim

import "testing"

// The engine microbenchmarks mirror the schedule shape `hpebench
// -bench-json` uses (see cmd/hpebench), so BENCH_<n>.json numbers and `go
// test -bench` numbers are directly comparable: 1000 events across 97
// distinct cycles, scheduled up front and drained.

// noopHandler is the zero-payload handler for dispatch-cost benchmarks.
type noopHandler struct{ n int }

func (h *noopHandler) OnEvent(a0, a1 uint64) { h.n++ }

// BenchmarkEngineHandlerScheduleAndRun is the engine's only scheduling
// path: Handler events with integer payloads, zero allocations per event.
func BenchmarkEngineHandlerScheduleAndRun(b *testing.B) {
	h := &noopHandler{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		hid := e.Register(h)
		for j := 0; j < 1000; j++ {
			e.Schedule(Cycle(j%97), hid, uint64(j), 0)
		}
		e.Run()
	}
}

// BenchmarkReferenceScheduleAndRun runs the identical schedule on the
// pre-rewrite container/heap engine — the bench-trajectory baseline.
func BenchmarkReferenceScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewReference()
		for j := 0; j < 1000; j++ {
			e.At(Cycle(j%97), func() {})
		}
		e.Run()
	}
}

// BenchmarkEngineCascade measures the self-rescheduling pattern (each event
// schedules the next, queue depth stays small) that dominates warp-slot
// recycling in the GPU model.
func BenchmarkEngineCascade(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		h := &cascadeHandler{e: e, remaining: 1000}
		h.id = e.Register(h)
		e.Schedule(0, h.id, 0, 0)
		e.Run()
	}
}

type cascadeHandler struct {
	e         *Engine
	id        HandlerID
	remaining int
}

func (h *cascadeHandler) OnEvent(a0, a1 uint64) {
	h.remaining--
	if h.remaining > 0 {
		h.e.ScheduleAfter(3, h.id, 0, 0)
	}
}
