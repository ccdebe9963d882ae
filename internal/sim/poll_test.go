package sim

import (
	"sync"
	"testing"
)

// TestStepAtLimitConsumesNoPollTicks pins the poll-ordering fix: a run
// parked at its limit (or drained) must not burn cancellation-poll ticks on
// no-op Steps. Before the fix, each no-op Step decremented pollLeft before
// the limit check, so an engine sitting at its limit would eventually invoke
// the poll — and could even cancel — without firing anything.
func TestStepAtLimitConsumesNoPollTicks(t *testing.T) {
	e := NewEngine()
	fired := 0
	hid := e.Register(handlerFunc(func(_, _ uint64) { fired++ }))
	for i := 0; i < 10; i++ {
		e.Schedule(Cycle(i*10), hid, 0, 0)
	}
	polls := 0
	e.SetCancel(4, func() bool {
		polls++
		return false
	})
	e.SetLimit(45) // events at 0..40 fire; 50..90 park

	e.Run()
	if fired != 5 {
		t.Fatalf("fired %d events under limit 45, want 5", fired)
	}
	// 5 firings at a poll interval of 4: exactly one poll.
	if polls != 1 {
		t.Fatalf("polls after limited Run = %d, want 1", polls)
	}

	// No-op Steps at the limit must not consume poll ticks.
	for i := 0; i < 100; i++ {
		if e.Step() {
			t.Fatal("Step fired an event past the limit")
		}
	}
	if polls != 1 {
		t.Fatalf("no-op Steps at the limit consumed poll ticks: polls = %d, want 1", polls)
	}

	// Releasing the limit resumes exactly where the schedule left off, with
	// the poll cadence intact: 5 more firings → two more polls (ticks 6..10,
	// polls at the 8th and 12th... i.e. fired counts 8 and 12 overall).
	e.SetLimit(0)
	e.Run()
	if fired != 10 {
		t.Fatalf("fired %d after removing limit, want 10", fired)
	}
	if polls != 2 {
		t.Fatalf("polls after full Run = %d, want 2", polls)
	}
}

// TestStepOnDrainedQueueConsumesNoPollTicks is the queue-empty sibling of
// the limit case.
func TestStepOnDrainedQueueConsumesNoPollTicks(t *testing.T) {
	e := NewEngine()
	e.Schedule(0, e.Register(&noopHandler{}), 0, 0)
	polls := 0
	e.SetCancel(1, func() bool { polls++; return false })
	e.Run()
	if polls != 1 {
		t.Fatalf("polls after Run = %d, want 1", polls)
	}
	for i := 0; i < 50; i++ {
		e.Step()
	}
	if polls != 1 {
		t.Fatalf("drained-queue Steps consumed poll ticks: polls = %d, want 1", polls)
	}
}

// TestRaceParallelEngines runs independent engines, each with two
// registered handlers, on concurrent goroutines. Engines are documented
// single-threaded per run but must share no hidden global state — a
// regression here (for example a package-level handler table) would corrupt
// parallel suite sweeps.
// The name matches the `make race-probe` pattern so it runs under -race.
func TestRaceParallelEngines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			e := NewEngine()
			count := 0
			tally := handlerFunc(func(a0, a1 uint64) { count++ })
			even, odd := e.Register(tally), e.Register(tally)
			for i := 0; i < 2000; i++ {
				if i%2 == 0 {
					e.Schedule(Cycle((i*7+seed)%997), even, uint64(i), 0)
				} else {
					e.Schedule(Cycle((i*7+seed)%997), odd, uint64(i), 0)
				}
			}
			e.Run()
			if count != 2000 {
				t.Errorf("engine %d fired %d events, want 2000", seed, count)
			}
		}(g)
	}
	wg.Wait()
}

// handlerFunc adapts a func to Handler for tests.
type handlerFunc func(a0, a1 uint64)

func (f handlerFunc) OnEvent(a0, a1 uint64) { f(a0, a1) }
