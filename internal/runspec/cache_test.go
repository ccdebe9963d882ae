package runspec

import (
	"sync"
	"testing"

	"hpe/internal/trace"
	"hpe/internal/workload"
)

// TestConcurrentCacheSharesOneTracePerApp races goroutines asking for the
// same app: every one must get the identical trace and future index, and a
// scaled variant of the app must get its own.
func TestConcurrentCacheSharesOneTracePerApp(t *testing.T) {
	app, ok := workload.ByAbbr("HOT")
	if !ok {
		t.Fatal("HOT missing from the catalog")
	}
	scaled := app.Scaled(2)

	var c Cache
	const goroutines = 8
	traces := make([]*trace.Trace, 2*goroutines)
	futures := make([]*trace.FutureIndex, 2*goroutines)
	var wg sync.WaitGroup
	for g := range traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := app
			if g%2 == 1 {
				a = scaled
			}
			traces[g] = c.Trace(a)
			futures[g] = c.Future(a, traces[g])
			traces[g].Footprint() // a plain read: traces are immutable
		}()
	}
	wg.Wait()

	for g := 2; g < len(traces); g++ {
		if traces[g] != traces[g%2] || futures[g] != futures[g%2] {
			t.Fatalf("goroutine %d got a different trace or future index for the same app", g)
		}
	}
	if traces[0] == traces[1] || futures[0] == futures[1] {
		t.Fatal("scaled variant shares the unscaled app's trace or future index")
	}
	if traces[0].Len() == 0 || traces[1].Footprint() <= traces[0].Footprint() {
		t.Fatalf("scaled trace footprint %d not above base %d", traces[1].Footprint(), traces[0].Footprint())
	}
}
