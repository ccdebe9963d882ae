package server

import (
	"context"
	"runtime"
	"testing"

	"hpe/internal/runspec"
)

// TestTraceMemoHoldsOnlyPaperGeometry bounds the daemon's trace memo to the
// catalog apps at their paper geometry, the traces that sweeps and repeated
// runs share. Scaled apps and phase schedules are generated per run, so
// once their runs end, distinct requests leave nothing live: four scale-16
// apps and four phase schedules may not grow the live heap by their traces.
func TestTraceMemoHoldsOnlyPaperGeometry(t *testing.T) {
	l := New(Config{Workers: 1, CacheBytes: -1}).x.(*local)
	run := func(sp runspec.Spec) {
		t.Helper()
		sp.Policy, sp.Rate, sp.MaxCycles = "lru", 50, 1
		sp, err := sp.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Run(context.Background(), sp, sp.ID()); err != nil {
			t.Fatal(err)
		}
	}
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	run(runspec.Spec{App: "HSD"}) // memoized: warms the daemon's state
	before := live()
	for _, app := range []string{"HSD", "BFS", "NW", "SAD"} {
		run(runspec.Spec{App: app, Scale: 16})
	}
	for _, phases := range []string{"HOT:32,HSD:96", "BFS:128,HOT:32", "NW:140,SAD:40", "HSD:96x3"} {
		run(runspec.Spec{Phases: phases})
	}
	grew := live() - before
	runtime.KeepAlive(l) // the daemon, and so its memo, outlives the measurement
	t.Logf("live heap grew %.1f MiB", float64(grew)/(1<<20))
	if grew > 4<<20 {
		t.Errorf("live heap grew %.1f MiB over eight distinct non-catalog runs, want under 4 MiB: their traces are kept",
			float64(grew)/(1<<20))
	}
}
