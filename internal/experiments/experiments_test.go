package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hpe/internal/hpe"
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

func TestIDsAndByIDRoundTrip(t *testing.T) {
	s := quick(t)
	ids := IDs()
	if len(ids) != 25 {
		t.Fatalf("IDs() = %d entries", len(ids))
	}
	// Cheap experiments resolve; the expensive ones are covered by the
	// shape tests — here we just validate the dispatch table for a couple.
	for _, id := range []string{"table1", "table2"} {
		rep, ok := s.ByID(id)
		if !ok {
			t.Fatalf("ByID(%q) missing", id)
		}
		if rep.ID != id || rep.Text == "" {
			t.Fatalf("ByID(%q) = %+v", id, rep)
		}
	}
	if _, ok := s.ByID("nope"); ok {
		t.Fatal("ByID accepted an unknown id")
	}
	// Every published ID resolves through the dispatch table (identity only;
	// execution happens in the shape tests).
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate experiment id %q", id)
		}
		seen[id] = true
	}
}

func TestRunCachesResults(t *testing.T) {
	s := quick(t)
	app := s.Apps()[0]
	a := s.Run(app, "lru", 75)
	b := s.Run(app, "lru", 75)
	if a.Cycles != b.Cycles || a.Faults != b.Faults {
		t.Fatal("cached result differs")
	}
	if n := s.CachedRuns(); n != 1 {
		t.Fatalf("cache has %d entries, want 1", n)
	}
	s.Run(app, "lru", 50)
	if n := s.CachedRuns(); n != 2 {
		t.Fatal("different rate did not produce a new cache entry")
	}
}

func TestRunSpecVariantsCacheSeparately(t *testing.T) {
	s := quick(t)
	app := s.Apps()[0]
	s.Run(app, "lru", 75)
	sp := s.spec(app, "lru", 75)
	sp.Tuning = runspec.Tuning{WalkLatency: 20}
	v1 := s.RunSpec(sp)
	v2 := s.RunSpec(sp)
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
	s.RunSpec(explicit)
	if n := s.CachedRuns(); n != 2 {
		t.Fatalf("explicit-default spec created a new cache entry (%d cells)", n)
	}
}

func TestCapacityForRates(t *testing.T) {
	tr := workload.Catalog()[0].Generate()
	fp := tr.Footprint()
	if c := capacityFor(tr, 75); c < fp*3/4 || c > fp*3/4+1 {
		t.Fatalf("capacityFor 75%% = %d for fp %d", c, fp)
	}
	if c := capacityFor(tr, 100); c != fp {
		t.Fatalf("capacityFor 100%% = %d, want %d", c, fp)
	}
	empty := trace.New("empty", nil)
	if c := capacityFor(empty, 50); c != 1 {
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
		m, err := s.spec(app, pol, 75).Materialize(s.env())
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
	s.Run(app, "no-such-policy", 75)
}

func TestRRIPConfiguredPerPattern(t *testing.T) {
	s := quick(t)
	hsd, _ := workload.ByAbbr("HSD") // Type II → thrashing config
	hot, _ := workload.ByAbbr("HOT") // Type I → default config
	// Both build RRIP; behavioural difference is covered in policy tests.
	// Here: just verify materialization does not fail and names match.
	mh, err1 := s.spec(hsd, "rrip", 75).Materialize(s.env())
	mo, err2 := s.spec(hot, "rrip", 75).Materialize(s.env())
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
	s := quick(t)
	t1 := s.Table1()
	if !strings.Contains(t1.Text, "GTX-480") || !strings.Contains(t1.Text, "20us") {
		t.Fatalf("Table1 missing key rows:\n%s", t1.Text)
	}
	if t1.Metrics["faultCycles"] != 28000 {
		t.Fatalf("fault cycles = %v", t1.Metrics["faultCycles"])
	}
	t2 := s.Table2()
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
	s.Run(s.Apps()[0], "lru", 75)
	if len(lines) != 1 {
		t.Fatalf("progress lines = %d, want 1", len(lines))
	}
	s.Run(s.Apps()[0], "lru", 75) // cached: no new line
	if len(lines) != 1 {
		t.Fatal("cached run emitted progress")
	}
}

func TestPrewarmMatchesSerial(t *testing.T) {
	serial := NewSuite(Options{Quick: true, Seed: 1})
	warm := NewSuite(Options{Quick: true, Seed: 1})
	warm.Prewarm(4)
	app := warm.Apps()[2]
	for _, pol := range ComparisonPolicies {
		for _, rate := range Rates {
			a := serial.Run(app, pol, rate)
			b := warm.Run(app, pol, rate)
			if a.Cycles != b.Cycles || a.Faults != b.Faults || a.Evictions != b.Evictions {
				t.Fatalf("%s@%d: prewarmed result differs: %v vs %v", pol, rate, a, b)
			}
		}
	}
	// Every grid cell was cached by the prewarm.
	want := len(warm.Apps()) * len(ComparisonPolicies) * len(Rates)
	if n := warm.CachedRuns(); n != want {
		t.Fatalf("prewarm cached %d results, want %d", n, want)
	}
}

func TestPrewarmNoopForOneWorker(t *testing.T) {
	s := NewSuite(Options{Quick: true})
	s.Prewarm(1)
	if len(s.results) != 0 {
		t.Fatal("Prewarm(1) ran simulations")
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
	s := NewSuite(Options{Quick: true, Seed: 1})
	s.Prewarm(4)
	for _, id := range IDs() {
		rep, ok := s.ByID(id)
		if !ok {
			t.Fatalf("experiment %q not dispatchable", id)
		}
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
