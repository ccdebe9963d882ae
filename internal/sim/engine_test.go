package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Cycle
	hid := e.Register(handlerFunc(func(a0, _ uint64) { got = append(got, Cycle(a0)) }))
	for _, at := range []Cycle{50, 10, 30, 20, 40} {
		e.Schedule(at, hid, uint64(at), 0)
	}
	end := e.Run()
	if end != 50 {
		t.Fatalf("final cycle = %d, want 50", end)
	}
	want := []Cycle{10, 20, 30, 40, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

func TestEngineSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	hid := e.Register(handlerFunc(func(a0, _ uint64) { got = append(got, int(a0)) }))
	for i := 0; i < 10; i++ {
		e.Schedule(100, hid, uint64(i), 0)
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events fired out of order: %v", got)
		}
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Cycle
	inner := e.Register(handlerFunc(func(_, _ uint64) { at = e.Now() }))
	outer := e.Register(handlerFunc(func(_, _ uint64) { e.ScheduleAfter(5, inner, 0, 0) }))
	e.Schedule(7, outer, 0, 0)
	e.Run()
	if at != 12 {
		t.Fatalf("ScheduleAfter(5) at cycle 7 fired at %d, want 12", at)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	noop := e.Register(handlerFunc(func(_, _ uint64) {}))
	past := e.Register(handlerFunc(func(_, _ uint64) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, noop, 0, 0)
	}))
	e.Schedule(10, past, 0, 0)
	e.Run()
}

func TestEngineCascadedEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var hid HandlerID
	hid = e.Register(handlerFunc(func(_, _ uint64) {
		count++
		if count < 100 {
			e.ScheduleAfter(3, hid, 0, 0)
		}
	}))
	e.Schedule(0, hid, 0, 0)
	end := e.Run()
	if count != 100 {
		t.Fatalf("fired %d cascaded events, want 100", count)
	}
	if end != 99*3 {
		t.Fatalf("final cycle = %d, want %d", end, 99*3)
	}
	if e.Fired() != 100 {
		t.Fatalf("Fired() = %d, want 100", e.Fired())
	}
}

func TestEngineLimitStopsRun(t *testing.T) {
	e := NewEngine()
	fired := 0
	hid := e.Register(handlerFunc(func(_, _ uint64) { fired++ }))
	for i := Cycle(0); i < 10; i++ {
		e.Schedule(i*10, hid, 0, 0)
	}
	e.SetLimit(45)
	e.Run()
	if fired != 5 {
		t.Fatalf("fired %d events under limit 45, want 5 (cycles 0..40)", fired)
	}
	if e.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", e.Pending())
	}
	e.SetLimit(0)
	e.Run()
	if fired != 10 {
		t.Fatalf("fired %d after removing limit, want 10", fired)
	}
}

func TestCyclesPerMicrosecond(t *testing.T) {
	// 20 µs at 1.4 GHz (1400 MHz) = 28,000 cycles — the paper's fault penalty.
	if got := CyclesPerMicrosecond(20); got != 28000 {
		t.Fatalf("20us @ 1400MHz = %d cycles, want 28000", got)
	}
	if got := CyclesPerMicrosecond(0); got != 0 {
		t.Fatalf("0us = %d cycles, want 0", got)
	}
}

// Property: for any set of event timestamps, the engine fires them in
// non-decreasing time order and ends at the max timestamp.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var fired []Cycle
		hid := e.Register(handlerFunc(func(a0, _ uint64) { fired = append(fired, Cycle(a0)) }))
		for _, ti := range times {
			e.Schedule(Cycle(ti), hid, uint64(ti), 0)
		}
		e.Run()
		if len(fired) != len(times) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving scheduled and cascaded events never loses events.
func TestEngineConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		scheduled, fired := 0, 0
		// a0 is the remaining cascade depth.
		var cascade HandlerID
		cascade = e.Register(handlerFunc(func(depth, _ uint64) {
			fired++
			if depth > 0 {
				scheduled++
				e.ScheduleAfter(Cycle(rng.Intn(5)), cascade, depth-1, 0)
			}
		}))
		n := 1 + rng.Intn(50)
		for i := 0; i < n; i++ {
			scheduled++
			d := rng.Intn(4)
			e.Schedule(Cycle(rng.Intn(1000)), cascade, uint64(d), 0)
		}
		e.Run()
		if fired != scheduled {
			t.Fatalf("trial %d: fired %d of %d scheduled events", trial, fired, scheduled)
		}
	}
}
