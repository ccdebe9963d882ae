package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"

	"hpe"
	"hpe/internal/experiments"
	"hpe/internal/gpu"
	"hpe/internal/runspec"
	"hpe/internal/server"
	"hpe/internal/trace"
	"hpe/internal/workload"
)

// Paths are relative to the repository root, where the benchmark runs.
const (
	goldenPath  = "results.json"
	fixturePath = "perfbench/expected.json"
)

// goldenTolerance is golden_test.go's: it absorbs float formatting and math
// library drift, not simulator changes.
const goldenTolerance = 1e-6

// wallClockMetrics are report metrics that time the host, not the model.
var wallClockMetrics = map[string]bool{"overhead/classifyUS": true, "overhead/updateUS": true}

// fixture holds the expected outputs that results.json does not cover,
// generated once with -regen-fixture and committed with the benchmark.
type fixture struct {
	Sweep sweepFixture `json:"sweep"`
	// Sim maps each sim-matrix spec ID to the digest of its Result's JSON.
	Sim map[string]string `json:"sim"`
	// Serve maps each spec ID of the request universe to its response body.
	Serve map[string]bodyFixture `json:"serve"`
}

type sweepFixture struct {
	// Sims is the number of simulations one full sweep runs.
	Sims int `json:"sims"`
	// Accesses is the number of simulated accesses across those runs.
	Accesses uint64 `json:"accesses"`
	// Reports are the experiments absent from results.json.
	Reports map[string]reportFixture `json:"reports"`
}

type reportFixture struct {
	Metrics map[string]float64 `json:"metrics"`
	Text    string             `json:"text"` // digest of the rendered text
}

type bodyFixture struct {
	Body     string `json:"body"` // digest of the full POST /v1/runs body
	Accesses uint64 `json:"accesses"`
}

type goldenReport struct {
	ID      string             `json:"id"`
	Metrics map[string]float64 `json:"metrics"`
}

// expected bundles everything outputs are checked against.
type expected struct {
	golden map[string]map[string]float64 // results.json, by experiment ID
	fx     fixture
}

func loadExpected() (*expected, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	ex := &expected{golden: golden}
	raw, err := os.ReadFile(fixturePath)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &ex.fx); err != nil {
		return nil, fmt.Errorf("parse %s: %w", fixturePath, err)
	}
	return ex, nil
}

// loadGolden reads results.json into experiment ID → metrics.
func loadGolden() (map[string]map[string]float64, error) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	var reps []goldenReport
	if err := json.Unmarshal(raw, &reps); err != nil {
		return nil, fmt.Errorf("parse %s: %w", goldenPath, err)
	}
	golden := make(map[string]map[string]float64, len(reps))
	for _, r := range reps {
		golden[r.ID] = r.Metrics
	}
	return golden, nil
}

// checkReport compares one experiment report with results.json or, for the
// experiments results.json lacks, with the fixture. It returns one line per
// mismatch.
func (ex *expected) checkReport(rep experiments.Report) []string {
	if want, ok := ex.golden[rep.ID]; ok {
		return compareMetrics(rep.ID, want, rep.Metrics)
	}
	want, ok := ex.fx.Sweep.Reports[rep.ID]
	if !ok {
		return []string{fmt.Sprintf("%s: no expected output", rep.ID)}
	}
	bad := compareMetrics(rep.ID, want.Metrics, rep.Metrics)
	if got := digest([]byte(rep.Text)); got != want.Text {
		bad = append(bad, fmt.Sprintf("%s: report text digest %s, want %s", rep.ID, got, want.Text))
	}
	return bad
}

// compareMetrics applies golden_test.go's rule: every expected metric is
// recomputed within goldenTolerance (values clamped from ±Inf are skipped),
// and no unexpected non-NaN metric appears.
func compareMetrics(id string, want, got map[string]float64) []string {
	var bad []string
	for key, wv := range want {
		if wallClockMetrics[id+"/"+key] || math.Abs(wv) >= math.MaxFloat64/2 {
			continue
		}
		gv, ok := got[key]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s/%s: missing", id, key))
			continue
		}
		if math.Abs(gv-wv) > goldenTolerance*math.Max(1, math.Abs(wv)) {
			bad = append(bad, fmt.Sprintf("%s/%s: got %v, want %v", id, key, gv, wv))
		}
	}
	for key, gv := range got {
		if _, ok := want[key]; !ok && !math.IsNaN(gv) && !wallClockMetrics[id+"/"+key] {
			bad = append(bad, fmt.Sprintf("%s/%s: unexpected metric", id, key))
		}
	}
	sort.Strings(bad)
	return bad
}

// resultDigest fingerprints every simulated statistic of a run.
func resultDigest(r gpu.Result) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// regenFixture recomputes the fixture from the current simulator. Run it
// only when the simulator's output changes on purpose.
func regenFixture(path string) error {
	var fx fixture

	// The sweep runs through a Runner so each simulation's result, and with
	// it the access count, is visible; the reports are unchanged by it.
	traces := map[string]*trace.Trace{}
	env := hpe.RunEnv{Trace: func(app workload.App) *trace.Trace {
		key := fmt.Sprintf("%s/%d", app.Abbr, app.Sets)
		if tr, ok := traces[key]; ok {
			return tr
		}
		tr := app.Generate()
		tr.Footprint()
		traces[key] = tr
		return tr
	}}
	suite := experiments.NewSuite(experiments.Options{Seed: 1, Workers: 1,
		Progress: func(string) { fx.Sweep.Sims++ },
		Runner: func(_ context.Context, sp runspec.Spec, _ string) (gpu.Result, error) {
			r, err := hpe.Run(sp, hpe.WithRunEnv(env))
			fx.Sweep.Accesses += r.Accesses
			return r, err
		}})
	reps, err := suite.Reports(experiments.IDs())
	if err != nil {
		return err
	}
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	fx.Sweep.Reports = map[string]reportFixture{}
	for _, rep := range reps {
		if _, ok := golden[rep.ID]; ok {
			continue
		}
		m := map[string]float64{}
		for k, v := range rep.Metrics {
			switch {
			case math.IsNaN(v):
				continue
			case math.IsInf(v, 1):
				v = math.MaxFloat64
			case math.IsInf(v, -1):
				v = -math.MaxFloat64
			}
			m[k] = v
		}
		fx.Sweep.Reports[rep.ID] = reportFixture{Metrics: m, Text: digest([]byte(rep.Text))}
	}

	matrix, err := simMatrix()
	if err != nil {
		return err
	}
	fx.Sim = map[string]string{}
	for _, sp := range matrix {
		r, err := hpe.Run(sp)
		if err != nil {
			return err
		}
		if fx.Sim[sp.ID()], err = resultDigest(r); err != nil {
			return err
		}
	}

	universe, err := serveUniverse()
	if err != nil {
		return err
	}
	fx.Serve, err = universeBodies(universe)
	if err != nil {
		return err
	}

	b, err := json.MarshalIndent(fx, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// universeBodies posts every universe spec to an in-process hped handler and
// records each response body's digest and simulated access count.
func universeBodies(universe []runspec.Spec) (map[string]bodyFixture, error) {
	srv := server.New(server.Config{Workers: 2})
	defer srv.Close()
	h := srv.Handler()
	out := make(map[string]bodyFixture, len(universe))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan runspec.Spec)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range next {
				body, _ := json.Marshal(wireSpec{App: sp.App, Policy: sp.Policy, Rate: sp.Rate})
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(string(body))))
				var resp server.RunResponse
				err := json.Unmarshal(rec.Body.Bytes(), &resp)
				mu.Lock()
				switch {
				case rec.Code != http.StatusOK && firstErr == nil:
					firstErr = fmt.Errorf("%s: status %d: %s", sp.ID(), rec.Code, rec.Body.String())
				case err != nil && firstErr == nil:
					firstErr = fmt.Errorf("%s: %w", sp.ID(), err)
				}
				out[sp.ID()] = bodyFixture{Body: digest(rec.Body.Bytes()), Accesses: resp.Result.Accesses}
				mu.Unlock()
			}
		}()
	}
	for _, sp := range universe {
		next <- sp
	}
	close(next)
	wg.Wait()
	return out, firstErr
}
