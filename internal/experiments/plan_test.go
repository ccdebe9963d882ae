package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hpe/internal/gpu"
	"hpe/internal/probe"
	"hpe/internal/runspec"
)

// planIDs canonicalizes an experiment's plan into its set of cell IDs.
func planIDs(s *Suite, e experiment) map[string]bool {
	ids := map[string]bool{}
	if e.plan != nil {
		for _, sp := range e.plan(s) {
			_, id := canonical(sp)
			ids[id] = true
		}
	}
	return ids
}

// renderPanics renders e from exactly the given cells and reports whether
// render read a cell outside them.
func renderPanics(s *Suite, e experiment, cells map[string]gpu.Result) (panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			if !strings.Contains(fmt.Sprint(p), "unplanned cell") {
				panic(p)
			}
			panicked = true
		}
	}()
	e.render(s, view{s: s, cells: cells})
	return false
}

// TestPlanCoversRender is the plan/render contract, per experiment on the
// quick subset: render reads exactly the cells its plan lists. With only the
// planned cells it renders; with any one of them withheld it reads the
// missing cell and panics — so no planned cell is superfluous either.
func TestPlanCoversRender(t *testing.T) {
	if testing.Short() {
		t.Skip("a full quick-suite pass skipped in -short mode")
	}
	s := NewSuite(Options{Quick: true, Seed: 1, Workers: 2})
	if _, err := s.Reports(IDs()); err != nil {
		t.Fatal(err)
	}
	all := s.results.Snapshot()
	for _, e := range table {
		cells := map[string]gpu.Result{}
		for id := range planIDs(s, e) {
			cells[id] = all[id]
		}
		if renderPanics(s, e, cells) {
			t.Errorf("%s: render reads a cell its plan does not list", e.id)
			continue
		}
		for id := range cells {
			without := map[string]gpu.Result{}
			for k, v := range cells {
				if k != id {
					without[k] = v
				}
			}
			if !renderPanics(s, e, without) {
				t.Errorf("%s: plan lists cell %s that render never reads", e.id, id)
			}
		}
	}
}

// cellError stands in for a Runner's typed error (hped's *server.Error).
type cellError struct{ code string }

func (e *cellError) Error() string { return "cell failed: " + e.code }

// TestReportsFailsOnRunnerError: a Runner that fails without cancelling
// anything must fail Reports with its own error — reachable through
// errors.As — rather than render from placeholder results (fig10's geomean
// of a zero IPC panics).
func TestReportsFailsOnRunnerError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls atomic.Int32
		s := NewSuite(Options{Quick: true, Seed: 1, Workers: workers,
			Runner: func(ctx context.Context, sp runspec.Spec, id string) (gpu.Result, error) {
				if calls.Add(1) == 3 {
					return gpu.Result{}, &cellError{code: "backend_unavailable"}
				}
				return gpu.Result{IPC: 1, Cycles: 1}, nil
			}})
		reps, err := s.Reports([]string{"fig10"})
		var ce *cellError
		if !errors.As(err, &ce) || ce.code != "backend_unavailable" || reps != nil {
			t.Fatalf("workers=%d: Reports = %d reports, %v; want the Runner's error", workers, len(reps), err)
		}
	}
}

// TestReportsFailsOnMissingCell: a cell that completes without a cacheable
// result (here a Runner's Cancelled result with no error) is named in
// Reports' error instead of being rendered.
func TestReportsFailsOnMissingCell(t *testing.T) {
	s := NewSuite(Options{Quick: true, Seed: 1,
		Runner: func(ctx context.Context, sp runspec.Spec, id string) (gpu.Result, error) {
			return gpu.Result{IPC: 1, Cycles: 1, Cancelled: sp.App == "KMN" && sp.Policy == "hpe"}, nil
		}})
	_, err := s.Reports([]string{"fig11"})
	if err == nil || !strings.Contains(err.Error(), "KMN_hpe_") {
		t.Fatalf("Reports error = %v, want one naming the KMN HPE cell", err)
	}
}

// TestConcurrentReportsUnionPool runs the union pool under the race
// detector: two concurrent Reports calls on one 4-worker Suite, with every
// cell delegated to an inner Suite whose probe factory counts simulations.
// Each distinct cell of the requested plans' union is simulated exactly
// once, and both calls render the same reports.
func TestConcurrentReportsUnionPool(t *testing.T) {
	var sims atomic.Int32
	inner := NewSuite(Options{Quick: true, Seed: 1,
		Probe: func(RunInfo) probe.Probe { sims.Add(1); return nil }})
	outer := NewSuite(Options{Quick: true, Seed: 1, Workers: 4,
		Runner: func(ctx context.Context, sp runspec.Spec, id string) (gpu.Result, error) {
			return runCell(inner, sp)
		}})
	ids := []string{"fig10", "fig12", "walklat", "temporal"}
	var wg sync.WaitGroup
	reps := make([][]Report, 2)
	errs := make([]error, 2)
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = outer.Reports(ids)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(reps[0], reps[1]) {
		t.Error("concurrent Reports calls rendered different reports")
	}
	union := map[string]bool{}
	for _, id := range ids {
		e, _ := lookup(id)
		for cell := range planIDs(outer, e) {
			union[cell] = true
		}
	}
	if n := int(sims.Load()); n != len(union) || outer.CachedRuns() != n || inner.CachedRuns() != n {
		t.Errorf("%d simulations for %d outer / %d inner cells, want one per cell of the %d-cell plan union",
			n, outer.CachedRuns(), inner.CachedRuns(), len(union))
	}
}
