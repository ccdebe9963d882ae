package sim

import "testing"

// TestStepSteadyStateZeroAlloc pins the hotalloc root sim.Engine.Step with
// a runtime measurement: once the event store has grown past its floor,
// a Schedule+Step pair must not allocate. The static guard (hpelint's
// hotalloc analyzer) proves no allocation site is reachable; this proves
// the same property end-to-end against the compiler's escape analysis.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	h := &noopHandler{}
	hid := e.Register(h)
	// Warm the node pool so Step never grows it.
	for j := 0; j < 2048; j++ {
		e.Schedule(Cycle(j), hid, 0, 0)
	}
	e.Run()

	avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, hid, 1, 2)
		if !e.Step() {
			t.Fatal("Step found no event")
		}
	})
	if avg != 0 {
		t.Errorf("Schedule+Step allocated %.2f objects per event in steady state, want 0", avg)
	}
}
