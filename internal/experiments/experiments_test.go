package experiments

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"hpe/internal/gpu"
	"hpe/internal/hpe"
	"hpe/internal/probe"
	"hpe/internal/runspec"
	"hpe/internal/trace"
	"hpe/internal/workload"
)

func quick(t *testing.T) *Suite {
	t.Helper()
	return NewSuite(Options{Quick: true, Seed: 1})
}

func TestSuiteAppSelection(t *testing.T) {
	full := NewSuite(Options{})
	if len(full.Apps()) != 23 {
		t.Fatalf("full suite has %d apps", len(full.Apps()))
	}
	q := NewSuite(Options{Quick: true})
	if len(q.Apps()) != 10 {
		t.Fatalf("quick suite has %d apps", len(q.Apps()))
	}
	// The quick subset must cover every pattern type.
	seen := map[workload.PatternType]bool{}
	for _, a := range q.Apps() {
		seen[a.Pattern] = true
	}
	if len(seen) != 6 {
		t.Fatalf("quick subset covers %d pattern types, want 6", len(seen))
	}
}

// report renders one experiment through Reports.
func report(t *testing.T, s *Suite, id string) Report {
	t.Helper()
	reps, err := s.Reports([]string{id})
	if err != nil {
		t.Fatal(err)
	}
	return reps[0]
}

// runCell simulates one cell the way Reports' pool does, returning its
// result (a Cancelled or failed one included) and the Runner's error.
func runCell(s *Suite, sp runspec.Spec) (gpu.Result, error) {
	c, id := canonical(sp)
	return s.run(s.ctx(), c, id)
}

// localRunner returns a Runner that simulates each cell in process over one
// shared trace cache, the shape of hpebench's -trace/-metrics Runner: the
// probe newProbe builds for the cell (nil: none) observes the run and is
// flushed when it ends.
func localRunner(newProbe func(sp runspec.Spec, id string) probe.Probe) func(context.Context, runspec.Spec, string) (gpu.Result, error) {
	var cache runspec.Cache
	env := runspec.Env{Trace: cache.Trace, Future: cache.Future}
	return func(ctx context.Context, sp runspec.Spec, id string) (gpu.Result, error) {
		pr := newProbe(sp, id)
		r, err := sp.Run(ctx, env, pr)
		if pr != nil {
			_ = pr.Flush()
		}
		return r, err
	}
}

func TestIDsAndLookupRoundTrip(t *testing.T) {
	ids := IDs()
	if len(ids) != 25 {
		t.Fatalf("IDs() = %d entries", len(ids))
	}
	// Every published ID resolves through the table, to its own entry, once.
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate experiment id %q", id)
		}
		seen[id] = true
		if e, ok := lookup(id); !ok || e.id != id || e.render == nil {
			t.Fatalf("lookup(%q) = %+v, %v", id, e, ok)
		}
	}
	if _, ok := lookup("nope"); ok {
		t.Fatal("lookup accepted an unknown id")
	}
}

func TestRunCachesResults(t *testing.T) {
	s := quick(t)
	app := s.Apps()[0]
	a, _ := runCell(s, s.spec(app, "lru", 75))
	b, _ := runCell(s, s.spec(app, "lru", 75))
	if a.Cycles != b.Cycles || a.Faults != b.Faults {
		t.Fatal("cached result differs")
	}
	if n := s.CachedRuns(); n != 1 {
		t.Fatalf("cache has %d entries, want 1", n)
	}
	runCell(s, s.spec(app, "lru", 50))
	if n := s.CachedRuns(); n != 2 {
		t.Fatal("different rate did not produce a new cache entry")
	}
}

func TestRunSpecVariantsCacheSeparately(t *testing.T) {
	s := quick(t)
	app := s.Apps()[0]
	runCell(s, s.spec(app, "lru", 75))
	sp := s.spec(app, "lru", 75)
	walk20(&sp)
	v1, _ := runCell(s, sp)
	v2, _ := runCell(s, sp)
	if v1.Cycles != v2.Cycles {
		t.Fatal("variant cache returned different results")
	}
	if n := s.CachedRuns(); n != 2 {
		t.Fatalf("cache has %d entries, want 2 (base + variant)", n)
	}
	// A spec spelling the defaults explicitly is the same run: no new cell.
	explicit := s.spec(app, "lru", 75)
	explicit.Design = "l2tlb"
	explicit.Channels = 1
	explicit.Scale = 1
	runCell(s, explicit)
	if n := s.CachedRuns(); n != 2 {
		t.Fatalf("explicit-default spec created a new cache entry (%d cells)", n)
	}
}

func TestCapacityForRates(t *testing.T) {
	tr := workload.Catalog()[0].Generate()
	fp := tr.Footprint()
	if c := runspec.CapacityFor(tr, 75); c < fp*3/4 || c > fp*3/4+1 {
		t.Fatalf("capacityFor 75%% = %d for fp %d", c, fp)
	}
	if c := runspec.CapacityFor(tr, 100); c != fp {
		t.Fatalf("capacityFor 100%% = %d, want %d", c, fp)
	}
	empty, err := trace.New("empty", nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := runspec.CapacityFor(empty, 50); c != 1 {
		t.Fatalf("capacityFor on empty trace = %d, want floor 1", c)
	}
}

func TestMaterializedPolicyNames(t *testing.T) {
	s := quick(t)
	app := s.Apps()[0]
	for pol, wantName := range map[string]string{
		"lru": "LRU", "fifo": "FIFO", "lfu": "LFU", "random": "Random",
		"rrip": "RRIP", "clockpro": "CLOCK-Pro", "ideal": "Ideal", "hpe": "HPE",
		"clock": "CLOCK", "nru": "NRU", "arc": "ARC",
	} {
		m, err := s.spec(app, pol, 75).Materialize(s.env)
		if err != nil {
			t.Fatalf("materialize %s: %v", pol, err)
		}
		if m.Policy.Name() != wantName {
			t.Errorf("materialize(%s) policy = %s, want %s", pol, m.Policy.Name(), wantName)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown policy accepted")
		}
	}()
	runCell(s, s.spec(app, "no-such-policy", 75))
}

func TestRRIPConfiguredPerPattern(t *testing.T) {
	s := quick(t)
	hsd, _ := workload.ByAbbr("HSD") // Type II → thrashing config
	hot, _ := workload.ByAbbr("HOT") // Type I → default config
	// Both build RRIP; behavioural difference is covered in policy tests.
	// Here: just verify materialization does not fail and names match.
	mh, err1 := s.spec(hsd, "rrip", 75).Materialize(s.env)
	mo, err2 := s.spec(hot, "rrip", 75).Materialize(s.env)
	if err1 != nil || err2 != nil || mh.Policy.Name() != "RRIP" || mo.Policy.Name() != "RRIP" {
		t.Fatal("RRIP construction failed")
	}
}

func TestManualStrategyTable(t *testing.T) {
	cases := map[string]hpe.Strategy{
		"HOT": hpe.StrategyMRUC, // Type I
		"HSD": hpe.StrategyMRUC, // Type II
		"PAT": hpe.StrategyMRUC, // Type III regular
		"KMN": hpe.StrategyLRU,  // Type III outlier
		"SAD": hpe.StrategyLRU,  // Type III outlier
		"NW":  hpe.StrategyLRU,  // Type IV
		"SGM": hpe.StrategyMRUC, // Type V outlier
		"HIS": hpe.StrategyLRU,  // Type V
		"B+T": hpe.StrategyLRU,  // Type VI
	}
	for abbr, want := range cases {
		app, ok := workload.ByAbbr(abbr)
		if !ok {
			t.Fatalf("app %s missing", abbr)
		}
		if got := runspec.ManualStrategy(app); got != want {
			t.Errorf("ManualStrategy(%s) = %v, want %v", abbr, got, want)
		}
	}
}

func TestNormalise(t *testing.T) {
	if normalise(4, 2) != 2 {
		t.Fatal("normalise(4,2)")
	}
	if normalise(0, 0) != 1 {
		t.Fatal("normalise(0,0) should be 1 (both ideal)")
	}
	if normalise(5, 0) != 5 {
		t.Fatal("normalise(5,0) should pass through")
	}
}

func TestDisplayNames(t *testing.T) {
	for _, pol := range append(append([]string{}, ComparisonPolicies...), extendedPolicies...) {
		if d := display(pol); d == "" || d == pol {
			t.Errorf("policy %q has no display rendering (got %q)", pol, d)
		}
	}
}

func TestTable1And2Content(t *testing.T) {
	reps, err := quick(t).Reports([]string{"table1", "table2"})
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := reps[0], reps[1]
	if !strings.Contains(t1.Text, "GTX-480") || !strings.Contains(t1.Text, "20us") {
		t.Fatalf("Table1 missing key rows:\n%s", t1.Text)
	}
	if t1.Metrics["faultCycles"] != 28000 {
		t.Fatalf("fault cycles = %v", t1.Metrics["faultCycles"])
	}
	for _, abbr := range []string{"HOT", "KMN"} {
		if _, ok := t2.Metrics["pages/"+abbr]; !ok {
			t.Fatalf("Table2 missing %s", abbr)
		}
	}
	// KMN must be the largest footprint (the paper's classification-cost
	// assumption).
	kmn := t2.Metrics["pages/KMN"]
	for k, v := range t2.Metrics {
		if strings.HasPrefix(k, "pages/") && v > kmn {
			t.Fatalf("%s (%v pages) exceeds KMN (%v)", k, v, kmn)
		}
	}
}

func TestReportString(t *testing.T) {
	r := Report{ID: "x", Title: "T", Text: "body\n"}
	out := r.String()
	if !strings.Contains(out, "x") || !strings.Contains(out, "T") || !strings.Contains(out, "body") {
		t.Fatalf("Report.String() = %q", out)
	}
}

// TestReportJSONMetrics pins the shared wire form of hpebench -json and
// /v1/suite: finite values pass through, ±Inf clamps to ±MaxFloat64, NaN is
// dropped, and only the rewritten keys are recorded, with the reason.
func TestReportJSONMetrics(t *testing.T) {
	r := Report{Metrics: map[string]float64{
		"ok": 1.5, "zero": 0, "neg": -2,
		"posinf": math.Inf(1), "neginf": math.Inf(-1), "notanum": math.NaN(),
	}}
	metrics, clamped := r.JSONMetrics()
	wantMetrics := map[string]float64{
		"ok": 1.5, "zero": 0, "neg": -2,
		"posinf": math.MaxFloat64, "neginf": -math.MaxFloat64,
	}
	if !reflect.DeepEqual(metrics, wantMetrics) {
		t.Errorf("metrics = %v, want %v", metrics, wantMetrics)
	}
	wantClamped := map[string]string{
		"posinf":  "+Inf: clamped to +MaxFloat64",
		"neginf":  "-Inf: clamped to -MaxFloat64",
		"notanum": "NaN: dropped",
	}
	if !reflect.DeepEqual(clamped, wantClamped) {
		t.Errorf("clamped = %v, want %v", clamped, wantClamped)
	}

	// All-finite (and empty) metrics rewrite nothing, so clamped stays nil
	// and its omitempty field never serialises.
	for _, in := range []map[string]float64{{"a": 1}, nil} {
		metrics, clamped := Report{Metrics: in}.JSONMetrics()
		if clamped != nil {
			t.Errorf("%v: clamped = %v, want nil", in, clamped)
		}
		if metrics == nil || len(metrics) != len(in) {
			t.Errorf("%v: metrics = %v", in, metrics)
		}
	}
}

func TestProgressCallback(t *testing.T) {
	var lines []string
	s := NewSuite(Options{Quick: true, Progress: func(l string) { lines = append(lines, l) }})
	runCell(s, s.spec(s.Apps()[0], "lru", 75))
	if len(lines) != 1 {
		t.Fatalf("progress lines = %d, want 1", len(lines))
	}
	runCell(s, s.spec(s.Apps()[0], "lru", 75)) // cached: no new line
	if len(lines) != 1 {
		t.Fatal("cached run emitted progress")
	}
}

// TestAllExperimentsQuick runs every registered experiment end to end over
// the quick subset and validates report structure. The numeric shape
// assertions live in the repository root's shape_test.go; this test is the
// harness's own smoke coverage.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment pass skipped in -short mode")
	}
	s := NewSuite(Options{Quick: true, Seed: 1, Workers: 4})
	reps, err := s.Reports(IDs())
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range IDs() {
		rep := reps[i]
		if rep.ID != id {
			t.Errorf("%s: report carries id %q", id, rep.ID)
		}
		if rep.Title == "" || rep.Text == "" {
			t.Errorf("%s: empty report", id)
		}
		if id != "table1" && len(rep.Metrics) == 0 {
			t.Errorf("%s: no metrics", id)
		}
	}
}
