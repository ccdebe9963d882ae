package sim

import "testing"

// TestCancelStopsEngine installs a poll that trips after a fixed number of
// checks and verifies the engine stops firing, reports Cancelled, and stays
// stopped on further Step calls.
func TestCancelStopsEngine(t *testing.T) {
	e := NewEngine()
	var fired int
	hid := e.Register(handlerFunc(func(_, _ uint64) { fired++ }))
	for i := 0; i < 100; i++ {
		e.Schedule(Cycle(i), hid, 0, 0)
	}
	polls := 0
	e.SetCancel(10, func() bool {
		polls++
		return polls >= 3
	})
	e.Run()
	if !e.Cancelled() {
		t.Fatal("engine not cancelled")
	}
	// 10-event poll interval, cancel on the 3rd poll: 29 events fire (the
	// poll precedes the 30th firing).
	if fired != 29 {
		t.Fatalf("fired %d events, want 29", fired)
	}
	if e.Step() {
		t.Fatal("Step fired an event after cancellation")
	}
	if e.Pending() == 0 {
		t.Fatal("cancelled engine should retain unfired events")
	}
}

// TestCancelNeverTripsIsFree runs a polled engine whose poll never trips and
// verifies results are unchanged relative to an unpolled engine.
func TestCancelNeverTripsIsFree(t *testing.T) {
	run := func(poll bool) (Cycle, uint64) {
		e := NewEngine()
		hid := e.Register(&noopHandler{})
		for i := 0; i < 1000; i++ {
			e.Schedule(Cycle(i*3), hid, 0, 0)
		}
		if poll {
			e.SetCancel(7, func() bool { return false })
		}
		return e.Run(), e.Fired()
	}
	c1, f1 := run(false)
	c2, f2 := run(true)
	if c1 != c2 || f1 != f2 {
		t.Fatalf("polled run differs: (%d, %d) vs (%d, %d)", c1, f1, c2, f2)
	}
}

// TestSetCancelClears verifies a nil poll removes the hook.
func TestSetCancelClears(t *testing.T) {
	e := NewEngine()
	e.SetCancel(1, func() bool { return true })
	e.SetCancel(0, nil)
	done := false
	e.Schedule(0, e.Register(handlerFunc(func(_, _ uint64) { done = true })), 0, 0)
	e.Run()
	if !done || e.Cancelled() {
		t.Fatal("cleared cancel hook still active")
	}
}
