package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpe/internal/experiments"
	"hpe/internal/probe"
	"hpe/internal/runspec"
)

func TestEncodeReportsClampsNonFinite(t *testing.T) {
	reports := []experiments.Report{{
		ID:    "r",
		Title: "T",
		Metrics: map[string]float64{
			"ok":      1.5,
			"posinf":  math.Inf(1),
			"neginf":  math.Inf(-1),
			"notanum": math.NaN(),
		},
	}}
	out := encodeReports(reports)
	if len(out) != 1 {
		t.Fatalf("encoded %d reports", len(out))
	}
	r := out[0]
	if r.ID != "r" || r.Title != "T" {
		t.Fatalf("identity lost: %+v", r)
	}
	if r.Metrics["ok"] != 1.5 {
		t.Fatalf("finite metric rewritten: %v", r.Metrics["ok"])
	}
	if r.Metrics["posinf"] != math.MaxFloat64 || r.Metrics["neginf"] != -math.MaxFloat64 {
		t.Fatalf("infinities not clamped: %v, %v", r.Metrics["posinf"], r.Metrics["neginf"])
	}
	if _, ok := r.Metrics["notanum"]; ok {
		t.Fatal("NaN metric not dropped")
	}
	// Every rewritten key is recorded, with the reason.
	want := map[string]string{
		"posinf":  "+Inf: clamped to +MaxFloat64",
		"neginf":  "-Inf: clamped to -MaxFloat64",
		"notanum": "NaN: dropped",
	}
	if len(r.Clamped) != len(want) {
		t.Fatalf("clamped = %v", r.Clamped)
	}
	for k, v := range want {
		if r.Clamped[k] != v {
			t.Errorf("clamped[%q] = %q, want %q", k, r.Clamped[k], v)
		}
	}
	if _, ok := r.Clamped["ok"]; ok {
		t.Fatal("finite metric recorded as clamped")
	}
}

func TestEncodeReportsOmitsEmptyClamped(t *testing.T) {
	out := encodeReports([]experiments.Report{{ID: "r", Metrics: map[string]float64{"a": 1}}})
	if out[0].Clamped != nil {
		t.Fatalf("clamped should stay nil for finite metrics: %v", out[0].Clamped)
	}
	raw, err := json.Marshal(out[0])
	if err != nil {
		t.Fatal(err)
	}
	var asMap map[string]json.RawMessage
	if err := json.Unmarshal(raw, &asMap); err != nil {
		t.Fatal(err)
	}
	if _, ok := asMap["clamped"]; ok {
		t.Fatal("empty clamped field serialised")
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	reports := []experiments.Report{{
		ID: "x", Title: "X",
		Metrics: map[string]float64{"v": 2, "inf": math.Inf(1)},
	}}
	if err := writeJSON(path, reports); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []jsonReport
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, raw)
	}
	if len(got) != 1 || got[0].ID != "x" || got[0].Metrics["v"] != 2 {
		t.Fatalf("round-trip = %+v", got)
	}
	if got[0].Metrics["inf"] != math.MaxFloat64 || got[0].Clamped["inf"] == "" {
		t.Fatalf("clamping lost in round-trip: %+v", got[0])
	}
}

func TestWriteJSONBadPath(t *testing.T) {
	err := writeJSON(filepath.Join(t.TempDir(), "no", "such", "dir", "x.json"), nil)
	if err == nil {
		t.Fatal("unwritable path accepted")
	}
}

// TestRunLabel: each run's trace file is named by its spec's canonical
// slug, the run name every other layer uses.
func TestRunLabel(t *testing.T) {
	cases := []struct {
		spec runspec.Spec
		want string
	}{
		{runspec.Spec{App: "HSD", Policy: "lru", Rate: 75}, "HSD_lru_75"},
		{runspec.Spec{App: "B+T", Policy: "hpe", Rate: 50,
			Tuning: runspec.Tuning{WalkLatency: 20}}, "B-T_hpe_50_walk20"},
		{runspec.Spec{App: "SAD", Policy: "clock-pro", Rate: 100, Channels: 4}, "SAD_clockpro_100_ch4"},
	}
	dir := t.TempDir()
	factory := buildProbeFactory(dir, false)
	for _, c := range cases {
		if err := factory(c.spec).Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, c.want+".trace.json")); err != nil {
			t.Errorf("run %+v: trace %s.trace.json missing: %v", c.spec, c.want, err)
		}
	}
}

func TestBuildProbeFactoryOffByDefault(t *testing.T) {
	if buildProbeFactory("", false) != nil {
		t.Fatal("factory should be nil with -trace and -metrics off (fast path)")
	}
	if probedRunner(nil, io.Discard) != nil {
		t.Fatal("runner should be nil without a probe factory (the suite's own cells)")
	}
}

func TestBuildProbeFactoryTrace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	factory := buildProbeFactory(dir, false)
	if factory == nil {
		t.Fatal("nil factory with -trace set")
	}
	p := factory(runspec.Spec{App: "HSD", Policy: "lru", Rate: 75})
	if p == nil {
		t.Fatal("factory returned no probe")
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "HSD_lru_75.trace.json"))
	if err != nil {
		t.Fatalf("trace file missing: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace document (lane metadata expected)")
	}
}

// failingWriter is a trace sink that rejects every write, like a full disk.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// countingProbe counts its flushes.
type countingProbe struct{ flushes int }

func (*countingProbe) Emit(probe.Event) {}

func (p *countingProbe) Flush() error { p.flushes++; return nil }

// TestProbedRunnerReportsFlushError: a trace that fails to write is reported
// on the runner's error stream, which hpebench points at stderr whether or
// not -v is set; the run's result is still returned.
func TestProbedRunnerReportsFlushError(t *testing.T) {
	var errw strings.Builder
	run := probedRunner(func(sp runspec.Spec) probe.Probe {
		return probe.NewChromeTrace(failingWriter{}, probe.ChromeTraceConfig{Process: sp.Slug()})
	}, &errw)
	sp := runspec.Spec{App: "HOT", Policy: "lru", Rate: 75}
	r, err := run(context.Background(), sp, sp.ID())
	if err != nil || r.Accesses == 0 {
		t.Fatalf("run = %+v, %v; want a complete result", r, err)
	}
	if got := errw.String(); !strings.Contains(got, "hpebench: flush HOT_lru_75: no space left on device") {
		t.Fatalf("flush error not reported; error stream = %q", got)
	}
}

// TestProbedRunnerFlushesOnce: the runner flushes each run's probe exactly
// once (the -metrics reporter prints on Flush) and hands the probe the
// run's event stream.
func TestProbedRunnerFlushesOnce(t *testing.T) {
	var errw strings.Builder
	var probes []*countingProbe
	m := probe.NewMetrics()
	run := probedRunner(func(runspec.Spec) probe.Probe {
		p := &countingProbe{}
		probes = append(probes, p)
		return probe.Multi(p, m)
	}, &errw)
	for _, pol := range []string{"lru", "hpe"} {
		sp := runspec.Spec{App: "HOT", Policy: pol, Rate: 75}
		if _, err := run(context.Background(), sp, sp.ID()); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range probes {
		if p.flushes != 1 {
			t.Errorf("run %d: probe flushed %d times, want 1", i, p.flushes)
		}
	}
	if len(probes) != 2 || m.Snapshot().Events == 0 || errw.Len() != 0 {
		t.Fatalf("%d probes, %d events, error stream %q", len(probes), m.Snapshot().Events, errw.String())
	}
}
