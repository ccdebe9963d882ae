package experiments

import (
	"reflect"
	"sync"
	"testing"

	"hpe/internal/probe"
)

// TestProbedReportsMatchUnprobed is the acceptance contract of the probe
// hook: attaching probes to every simulation — at any worker count — must
// leave the rendered reports byte-identical to an unprobed serial run,
// because probes observe and never steer.
func TestProbedReportsMatchUnprobed(t *testing.T) {
	if testing.Short() {
		t.Skip("three suite passes skipped in -short mode")
	}
	ids := []string{"fig10"}
	baseline := NewSuite(Options{Quick: true, Seed: 1, Workers: 1})
	bReps, err := baseline.Reports(ids)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var made []*probe.Metrics
		calls := map[RunInfo]int{}
		s := NewSuite(Options{Quick: true, Seed: 1, Workers: workers,
			Probe: func(info RunInfo) probe.Probe {
				mu.Lock()
				defer mu.Unlock()
				calls[info]++
				m := probe.NewMetrics()
				made = append(made, m)
				return m
			}})
		reps, err := s.Reports(ids)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ids {
			if reps[i].Text != bReps[i].Text {
				t.Errorf("workers=%d: %s text differs from unprobed baseline", workers, ids[i])
			}
			if !reflect.DeepEqual(reps[i].Metrics, bReps[i].Metrics) {
				t.Errorf("workers=%d: %s metrics differ from unprobed baseline", workers, ids[i])
			}
		}
		// The factory runs exactly once per memoized simulation cell.
		mu.Lock()
		for info, n := range calls {
			if n != 1 {
				t.Errorf("workers=%d: probe factory called %d times for %+v", workers, n, info)
			}
			if info.Spec.App == "" || info.Spec.Policy == "" || info.Spec.Rate == 0 || info.ID == "" {
				t.Errorf("workers=%d: incomplete RunInfo %+v", workers, info)
			}
			if info.ID != info.Spec.ID() {
				t.Errorf("workers=%d: RunInfo.ID %q does not match Spec.ID() %q", workers, info.ID, info.Spec.ID())
			}
		}
		if len(calls) != s.CachedRuns() {
			t.Errorf("workers=%d: %d factory calls vs %d cached runs", workers, len(calls), s.CachedRuns())
		}
		// The probes actually saw the event stream.
		events := uint64(0)
		for _, m := range made {
			events += m.Snapshot().Events
		}
		mu.Unlock()
		if events == 0 {
			t.Errorf("workers=%d: probes observed no events", workers)
		}
	}
}

// TestProbeFactoryMayReturnNil: a factory can decline individual runs; those
// run on the uninstrumented fast path.
func TestProbeFactoryMayReturnNil(t *testing.T) {
	s := NewSuite(Options{Quick: true, Seed: 1,
		Probe: func(RunInfo) probe.Probe { return nil }})
	base := NewSuite(Options{Quick: true, Seed: 1})
	app := s.Apps()[0]
	a, _ := runCell(s, s.spec(app, "lru", 75))
	b, _ := runCell(base, base.spec(app, "lru", 75))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("nil-probe run diverged")
	}
}

// TestProbeSurfacesMetricsSnapshot: a Metrics probe attached through the
// suite surfaces its snapshot on the cached gpu.Result.
func TestProbeSurfacesMetricsSnapshot(t *testing.T) {
	s := NewSuite(Options{Quick: true, Seed: 1,
		Probe: func(RunInfo) probe.Probe { return probe.NewMetrics() }})
	app := s.Apps()[0]
	res, _ := runCell(s, s.spec(app, "lru", 75))
	if res.Probe == nil {
		t.Fatal("Result.Probe nil with a metrics factory attached")
	}
	if res.Probe.Count("fault_end") != res.Faults {
		t.Fatalf("probe fault_end %d vs faults %d", res.Probe.Count("fault_end"), res.Faults)
	}
}
