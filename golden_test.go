// Golden-results regression test: every experiment of the suite — the
// paper's tables and figures and the studies beyond them — recomputed over
// the full 23-app catalog and checked against the committed results.json.
// A silent simulator regression anywhere in the output fails
// `go test ./...` instead of only surfacing when EXPERIMENTS.md is next
// regenerated. Refresh the golden file after an intentional behaviour change
// with:
//
//	go run ./cmd/hpebench -json results.json
package hpe_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"hpe/internal/experiments"
	"hpe/internal/probe"
)

// goldenReport mirrors cmd/hpebench's jsonReport.
type goldenReport struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Metrics map[string]float64 `json:"metrics"`
}

// goldenTolerance absorbs floating-point formatting and math-library drift
// across Go releases, not simulator changes: the simulator is deterministic,
// so genuine regressions shift these aggregates by far more.
const goldenTolerance = 1e-6

// loadGolden reads results.json into experiment ID → report.
func loadGolden(t *testing.T) map[string]goldenReport {
	t.Helper()
	raw, err := os.ReadFile("results.json")
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	var golden []goldenReport
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("parsing results.json: %v", err)
	}
	byID := map[string]goldenReport{}
	for _, g := range golden {
		byID[g.ID] = g
	}
	return byID
}

// checkGolden compares one recomputed report with its results.json entry:
// every golden metric is recomputed within goldenTolerance and no new
// non-NaN metric appears. Values clamped from ±Inf by the JSON writer and
// the host-timed metrics are not comparable and are skipped.
func checkGolden(t *testing.T, label string, golden map[string]goldenReport, rep experiments.Report) {
	t.Helper()
	want, ok := golden[rep.ID]
	if !ok {
		t.Errorf("results.json has no %q entry", rep.ID)
		return
	}
	for key, gv := range want.Metrics {
		if math.Abs(gv) >= math.MaxFloat64/2 || experiments.HostTimed(rep.ID, key) {
			continue
		}
		mv, ok := rep.Metrics[key]
		if !ok {
			t.Errorf("%s%s: metric %q in golden file but not recomputed", label, rep.ID, key)
			continue
		}
		diff := math.Abs(mv - gv)
		if diff > goldenTolerance*math.Max(1, math.Abs(gv)) {
			t.Errorf("%s%s/%s: recomputed %v, golden %v (Δ %.3g) — simulator behaviour changed; "+
				"if intentional, regenerate results.json", label, rep.ID, key, mv, gv, diff)
		}
	}
	for key, mv := range rep.Metrics {
		if _, ok := want.Metrics[key]; !ok && !math.IsNaN(mv) {
			t.Errorf("%s%s: new metric %q missing from golden file — regenerate results.json", label, rep.ID, key)
		}
	}
}

// TestGoldenHeadlineResults recomputes every experiment ID. The parallel
// runner is byte-identical to serial, so it runs at one worker per CPU.
func TestGoldenHeadlineResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog recomputation skipped in -short mode")
	}
	golden := loadGolden(t)
	ids := experiments.IDs()
	if len(golden) != len(ids) {
		t.Errorf("results.json has %d entries, the suite %d experiments", len(golden), len(ids))
	}
	// Same seed as cmd/hpebench.
	s := experiments.NewSuite(experiments.Options{Seed: 1, Workers: runtime.GOMAXPROCS(0)})
	reps, err := s.Reports(ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		checkGolden(t, "", golden, rep)
	}
	// The union of every experiment's plan: each distinct cell once.
	if n := s.CachedRuns(); n != 1314 {
		t.Errorf("the full suite simulated %d cells, want 1314", n)
	}
}

// TestGoldenProbedRuns pins the two invariants the probe layer and the
// rewritten engine hot path must uphold together: attaching instrumentation
// (a Metrics probe on every run) changes no result, and neither does the
// worker count. Both a serial run and an 8-worker run, each fully probed,
// must reproduce the headline figures (Fig. 10/11/12) of the committed
// results.json exactly — the same golden file the unprobed test uses.
func TestGoldenProbedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full recomputation skipped in -short mode")
	}
	golden := loadGolden(t)
	for _, workers := range []int{1, 8} {
		s := experiments.NewSuite(experiments.Options{
			Seed:    1,
			Workers: workers,
			Probe:   func(experiments.RunInfo) probe.Probe { return probe.NewMetrics() },
		})
		reps, err := s.Reports([]string{"fig10", "fig11", "fig12"})
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range reps {
			checkGolden(t, fmt.Sprintf("probed workers=%d ", workers), golden, rep)
		}
	}
}
