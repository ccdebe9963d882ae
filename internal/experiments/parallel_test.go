package experiments

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpe/internal/probe"
	"hpe/internal/runspec"
	"hpe/internal/workload"
)

// --- worker pool ---------------------------------------------------------------

func TestRunPoolCoversAllIndices(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 3, 8, 100} {
		const n = 37
		hits := make([]atomic.Int32, n)
		if err := runPool(ctx, workers, n, func(i int) { hits[i].Add(1) }); err != nil {
			t.Fatalf("workers=%d: runPool error: %v", workers, err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, c)
			}
		}
	}
	_ = runPool(ctx, 4, 0, func(int) { t.Fatal("fn called for n=0") })
}

// TestRunPoolDrainsOnCancel cancels the pool mid-feed and requires a clean
// teardown: runPool returns context.Canceled, no index past the cancellation
// point runs, and every worker goroutine exits (nothing left blocked on the
// feed channel).
func TestRunPoolDrainsOnCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := runPool(ctx, 4, 1000, func(i int) {
		if ran.Add(1) == 8 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
	})
	if err != context.Canceled {
		t.Fatalf("runPool error = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("pool ran all %d jobs despite cancellation", n)
	}
	waitForGoroutines(t, before)
}

// TestRunPoolDrainsOnPanic covers the early-error teardown: a panicking job
// (the "policy fails on first eviction" scenario — SelectVictim panics inside
// a worker) must not strand the feeder on the feed channel or kill the
// process from a worker goroutine. The panic re-raises on the caller after
// every worker has exited.
func TestRunPoolDrainsOnPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	var ran atomic.Int32
	func() {
		defer func() {
			if p := recover(); p != "policy failed on first eviction" {
				t.Errorf("recovered %v, want the job's panic value", p)
			}
		}()
		_ = runPool(context.Background(), 4, 1000, func(i int) {
			if ran.Add(1) == 5 {
				panic("policy failed on first eviction")
			}
			time.Sleep(100 * time.Microsecond)
		})
		t.Error("runPool returned instead of panicking")
	}()
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("pool ran all %d jobs despite the panic", n)
	}
	waitForGoroutines(t, before)
}

// TestSuitePanickingRunDrains runs real suite cells whose probe factory
// panics under a 4-worker pool: the panic must surface to the caller with
// the pool fully drained, and the poisoned cells must be reclaimable
// afterwards (flight.Memo drops panicked flights).
func TestSuitePanickingRunDrains(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	s := NewSuite(Options{Quick: true, Seed: 1, Workers: 4,
		Probe: func(RunInfo) probe.Probe {
			if failing.Load() {
				panic("probe factory failed")
			}
			return nil
		}})
	app, _ := workload.ByAbbr("HOT")
	specs := make([]runspec.Spec, 4)
	for i := range specs {
		specs[i] = s.spec(app, "lru", 75)
		specs[i].Tuning = runspec.Tuning{WalkLatency: 21 + i}
	}
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panicking run did not propagate out of the pool")
			}
		}()
		_ = runPool(context.Background(), 4, 4, func(i int) {
			runCell(s, specs[i])
		})
	}()
	waitForGoroutines(t, before)
	// The cells are reclaimable: a well-behaved retry of the same key works.
	failing.Store(false)
	r, _ := runCell(s, specs[0])
	if r.Accesses == 0 {
		t.Fatal("retry after panicked flight produced an empty result")
	}
}

// waitForGoroutines waits for the goroutine count to fall back to (or below)
// the pre-test baseline, tolerating runtime background goroutines.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// cancellingProbe cancels the suite's context after observing `after`
// simulation events, forcing a mid-run cancellation.
type cancellingProbe struct {
	cancel context.CancelFunc
	after  int
	seen   int
}

func (p *cancellingProbe) Emit(probe.Event) {
	p.seen++
	if p.seen == p.after {
		p.cancel()
	}
}

func (p *cancellingProbe) Flush() error { return nil }

// TestCancelledRunNeverCached is the suite half of the cancellation
// regression: a run cancelled partway must never leave its partial result
// cached under the spec's ID — a later identical request must recompute, not
// inherit the truncated simulation.
func TestCancelledRunNeverCached(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	factoryCalls := 0
	s := NewSuite(Options{Quick: true, Seed: 1, Context: ctx,
		Probe: func(RunInfo) probe.Probe {
			factoryCalls++
			return &cancellingProbe{cancel: cancel, after: 100}
		}})
	app, _ := workload.ByAbbr("HOT")
	r, _ := runCell(s, s.spec(app, "lru", 75))
	if !r.Cancelled {
		t.Fatal("probe-triggered cancel did not mark the result cancelled")
	}
	if n := s.CachedRuns(); n != 0 {
		t.Fatalf("cancelled run left %d cached results", n)
	}
	// The same spec recomputes instead of serving the partial result.
	r2, _ := runCell(s, s.spec(app, "lru", 75))
	if factoryCalls != 2 {
		t.Fatalf("second request ran %d simulations in total, want 2 (no cache hit)", factoryCalls)
	}
	if !r2.Cancelled {
		t.Fatal("recomputation under a cancelled context should cancel again")
	}
	if n := s.CachedRuns(); n != 0 {
		t.Fatalf("recomputed cancelled run left %d cached results", n)
	}
}

// --- suite concurrency ---------------------------------------------------------

// TestConcurrentSuiteRace hammers every shared cache — traces, future
// indexes, plain runs, and variant runs — from many goroutines. Run it under
// `go test -race`; it is cheap enough for -short mode. The atomic counter
// proves singleflight semantics: the variant build closure runs once per key
// no matter how many goroutines request it.
func TestConcurrentSuiteRace(t *testing.T) {
	var simulated atomic.Int32 // probe factory fires once per memoized cell
	s := NewSuite(Options{Quick: true, Seed: 1, Workers: 4,
		Probe: func(RunInfo) probe.Probe { simulated.Add(1); return nil }})
	apps := []string{"HOT", "STN", "SGM"}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < len(apps); i++ {
				app, _ := workload.ByAbbr(apps[(w+i)%len(apps)])
				s.Trace(app)
				runCell(s, s.spec(app, "lru", 75))
				runCell(s, s.spec(app, "ideal", 75)) // exercises the future-index singleflight
				sp := s.spec(app, "lru", 75)
				walk20(&sp)
				runCell(s, sp)
			}
		}(w)
	}
	wg.Wait()

	if n := simulated.Load(); n != int32(3*len(apps)) {
		t.Errorf("simulations ran %d times, want %d (one per cell)", n, 3*len(apps))
	}
	// 3 apps × (LRU + Ideal + walk20 variant) = 9 cached cells.
	if n := s.CachedRuns(); n != 3*len(apps) {
		t.Errorf("cached %d runs, want %d", n, 3*len(apps))
	}
	// All goroutines must have shared one trace instance per app.
	for _, abbr := range apps {
		app, _ := workload.ByAbbr(abbr)
		if s.Trace(app) != s.Trace(app) {
			t.Errorf("%s: Trace not memoized", abbr)
		}
	}
}

func TestReportsRejectsUnknownID(t *testing.T) {
	s := NewSuite(Options{Quick: true, Seed: 1})
	if _, err := s.Reports([]string{"table1", "nope"}); err == nil {
		t.Fatal("Reports accepted an unknown id")
	}
	if s.CachedRuns() != 0 {
		t.Fatal("Reports ran simulations before validating ids")
	}
}

func TestReportsPreservesRequestOrder(t *testing.T) {
	s := NewSuite(Options{Quick: true, Seed: 1, Workers: 2})
	ids := []string{"table2", "table1"}
	reps, err := s.Reports(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if reps[i].ID != id {
			t.Fatalf("reports[%d].ID = %q, want %q", i, reps[i].ID, id)
		}
	}
}

// deterministicIDs is every experiment except "overhead", whose report embeds
// host wall-clock measurements (classification/chain-update microseconds)
// that differ run to run even serially — its deterministic metrics are
// checked separately in TestParallelMatchesSerial.
func deterministicIDs() []string {
	var out []string
	for _, id := range IDs() {
		if id != "overhead" {
			out = append(out, id)
		}
	}
	return out
}

// TestParallelMatchesSerial is the determinism contract of the concurrent
// runner: the full quick-subset evaluation through Workers: 1 and Workers: 8
// must produce byte-identical Report renderings, bit-identical metrics, and
// deeply equal gpu.Result values for every cached run. Every future
// parallelism PR leans on this test.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick-suite passes skipped in -short mode")
	}
	serial := NewSuite(Options{Quick: true, Seed: 1, Workers: 1})
	par := NewSuite(Options{Quick: true, Seed: 1, Workers: 8})
	ids := deterministicIDs()

	sReps, err := serial.Reports(ids)
	if err != nil {
		t.Fatal(err)
	}
	pReps, err := par.Reports(ids)
	if err != nil {
		t.Fatal(err)
	}

	for i := range ids {
		sr, pr := sReps[i], pReps[i]
		if sr.ID != pr.ID || sr.Title != pr.Title {
			t.Fatalf("%s: report identity differs", ids[i])
		}
		if sr.Text != pr.Text {
			t.Errorf("%s: rendered text differs between serial and parallel runs", ids[i])
		}
		if !reflect.DeepEqual(sr.Metrics, pr.Metrics) {
			t.Errorf("%s: metrics differ between serial and parallel runs", ids[i])
		}
	}

	// Overheads: the wall-clock fields are excluded, everything simulated is
	// compared bit for bit.
	sOvs, err := serial.Reports([]string{"overhead"})
	if err != nil {
		t.Fatal(err)
	}
	pOvs, err := par.Reports([]string{"overhead"})
	if err != nil {
		t.Fatal(err)
	}
	sOv, pOv := sOvs[0], pOvs[0]
	for k, sv := range sOv.Metrics {
		if HostTimed("overhead", k) {
			continue
		}
		if pv, ok := pOv.Metrics[k]; !ok || pv != sv {
			t.Errorf("overhead metric %q: serial %v vs parallel %v", k, sv, pOv.Metrics[k])
		}
	}

	// Every cached simulation result — all fields, including the nested
	// HIR/HPE/driver statistics — must be identical.
	if ns, np := serial.CachedRuns(), par.CachedRuns(); ns != np {
		t.Fatalf("run-cache sizes differ: serial %d vs parallel %d", ns, np)
	}
	parRuns := par.results.Snapshot()
	for key, sv := range serial.results.Snapshot() {
		pv, ok := parRuns[key]
		if !ok {
			t.Errorf("parallel run missing cell %+v", key)
			continue
		}
		if !reflect.DeepEqual(sv, pv) {
			t.Errorf("cell %+v: gpu.Result differs between serial and parallel runs", key)
		}
	}
}
