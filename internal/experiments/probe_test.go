package experiments

import (
	"reflect"
	"sync"
	"testing"

	"hpe/internal/probe"
	"hpe/internal/runspec"
)

// TestProbedReportsMatchUnprobed is the acceptance contract of probing
// through a Runner: attaching probes to every simulation — at any worker
// count — must leave the rendered reports byte-identical to an unprobed
// serial run, because probes observe and never steer.
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

	type cell struct {
		spec runspec.Spec
		id   string
	}
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var made []*probe.Metrics
		calls := map[cell]int{}
		s := NewSuite(Options{Quick: true, Seed: 1, Workers: workers,
			Runner: localRunner(func(sp runspec.Spec, id string) probe.Probe {
				mu.Lock()
				defer mu.Unlock()
				calls[cell{sp, id}]++
				m := probe.NewMetrics()
				made = append(made, m)
				return m
			})})
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
		// The Runner runs exactly once per memoized simulation cell.
		mu.Lock()
		for c, n := range calls {
			if n != 1 {
				t.Errorf("workers=%d: runner called %d times for %+v", workers, n, c)
			}
			if c.spec.App == "" || c.spec.Policy == "" || c.spec.Rate == 0 || c.id == "" {
				t.Errorf("workers=%d: incomplete cell %+v", workers, c)
			}
			if c.id != c.spec.ID() {
				t.Errorf("workers=%d: cell id %q does not match Spec.ID() %q", workers, c.id, c.spec.ID())
			}
		}
		if len(calls) != s.CachedRuns() {
			t.Errorf("workers=%d: %d runner calls vs %d cached runs", workers, len(calls), s.CachedRuns())
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

// TestProbeSurfacesMetricsSnapshot: a Metrics probe attached by a suite
// Runner surfaces its snapshot on the cached gpu.Result.
func TestProbeSurfacesMetricsSnapshot(t *testing.T) {
	s := NewSuite(Options{Quick: true, Seed: 1,
		Runner: localRunner(func(runspec.Spec, string) probe.Probe { return probe.NewMetrics() })})
	app := s.Apps()[0]
	res, _ := runCell(s, s.spec(app, "lru", 75))
	if res.Probe == nil {
		t.Fatal("Result.Probe nil with a metrics probe attached")
	}
	if res.Probe.Count("fault_end") != res.Faults {
		t.Fatalf("probe fault_end %d vs faults %d", res.Probe.Count("fault_end"), res.Faults)
	}
}
