package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"hpe/internal/gpu"
	"hpe/internal/runspec"
	"hpe/internal/workload"
)

// TestRunnerDelegationByteIdentical is the contract the cluster coordinator
// is built on: a suite whose cells are delegated through Options.Runner —
// including a JSON round-trip of every gpu.Result, exactly what the wire
// path does — renders reports byte-identical to a suite simulating locally.
func TestRunnerDelegationByteIdentical(t *testing.T) {
	local := NewSuite(Options{Quick: true, Seed: 1})

	// The "remote" side: an inner suite standing in for a backend. The outer
	// suite never simulates; every cell flows through the Runner and a JSON
	// round-trip, as it would over HTTP.
	backend := NewSuite(Options{Quick: true, Seed: 1})
	var delegated atomic.Int32
	outer := NewSuite(Options{Quick: true, Seed: 1, Workers: 4,
		Runner: func(ctx context.Context, sp runspec.Spec, id string) (gpu.Result, error) {
			delegated.Add(1)
			if got := mustID(t, sp); got != id {
				return gpu.Result{}, errors.New("runner handed a non-canonical spec: " + got + " != " + id)
			}
			r, _ := runCell(backend, sp)
			raw, err := json.Marshal(r)
			if err != nil {
				return gpu.Result{}, err
			}
			var back gpu.Result
			if err := json.Unmarshal(raw, &back); err != nil {
				return gpu.Result{}, err
			}
			return back, nil
		}})

	ids := []string{"fig10", "fig12"}
	want, err := local.Reports(ids)
	if err != nil {
		t.Fatal(err)
	}
	got, err := outer.Reports(ids)
	if err != nil {
		t.Fatal(err)
	}
	if delegated.Load() == 0 {
		t.Fatal("Runner was never invoked")
	}
	for i := range ids {
		if want[i].Text != got[i].Text {
			t.Errorf("%s: delegated report text differs from local", ids[i])
		}
		if !reflect.DeepEqual(want[i].Metrics, got[i].Metrics) {
			t.Errorf("%s: delegated metrics differ from local", ids[i])
		}
	}
	// The round-tripped cached results themselves are deeply equal.
	if nl, no := local.CachedRuns(), outer.CachedRuns(); nl != no {
		t.Fatalf("cache sizes differ: local %d vs delegated %d", nl, no)
	}
	outerRuns := outer.results.Snapshot()
	for key, lv := range local.results.Snapshot() {
		ov, ok := outerRuns[key]
		if !ok {
			t.Errorf("delegated suite missing cell %s", key)
			continue
		}
		if !reflect.DeepEqual(lv, ov) {
			t.Errorf("cell %s: gpu.Result differs after JSON round-trip", key)
		}
	}
}

// TestRunnerErrorNeverCached pins the failure semantics: a Runner error
// reaches the caller that ran the cell and is never published, so a later
// request recomputes (and can succeed).
func TestRunnerErrorNeverCached(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	inner := NewSuite(Options{Quick: true, Seed: 1})
	s := NewSuite(Options{Quick: true, Seed: 1,
		Runner: func(ctx context.Context, sp runspec.Spec, id string) (gpu.Result, error) {
			if fail.Load() {
				return gpu.Result{}, errors.New("backend unavailable")
			}
			return runCell(inner, sp)
		}})
	app, _ := workload.ByAbbr("HOT")

	if _, err := runCell(s, s.spec(app, "lru", 75)); err == nil {
		t.Fatal("runner error did not surface")
	}
	if n := s.CachedRuns(); n != 0 {
		t.Fatalf("failed delegation left %d cached results", n)
	}

	fail.Store(false)
	r, err := runCell(s, s.spec(app, "lru", 75))
	if err != nil || r.Cancelled || r.Accesses == 0 {
		t.Fatalf("retry after runner failure did not produce a real result: %+v", r)
	}
	if n := s.CachedRuns(); n != 1 {
		t.Fatalf("successful retry cached %d results, want 1", n)
	}
}

// mustID canonicalizes and hashes a spec for test assertions.
func mustID(t *testing.T, sp runspec.Spec) string {
	t.Helper()
	c, err := sp.Canonicalize()
	if err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	return c.ID()
}
