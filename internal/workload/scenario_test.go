package workload

import (
	"reflect"
	"strings"
	"testing"

	"hpe/internal/addrspace"
	"hpe/internal/trace"
)

func TestParsePhasesCanonical(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"HOT:32,HSD:96,HOT:32", "HOT:32,HSD:96,HOT:32"},
		{"hot:32", "HOT:32"},
		{" hot : 32 ", "HOT:32"},   // whitespace trimmed... see below
		{"HOT:128:4", "HOT"},       // explicit catalog defaults fold away
		{"HOT:128", "HOT"},         // sets default folds
		{"HOT:64:4", "HOT:64"},     // default gap folds
		{"HOT:128:2", "HOT:128:2"}, // non-default gap keeps explicit sets
		{"STNx1", "STN"},           // x1 folds
		{"STNx2,STN:16x2,STNx2", "STNx2,STN:16x2,STNx2"},
		{"b+t:40", "B+T:40"},
	}
	for _, c := range cases {
		ps, err := ParsePhases(c.in)
		if err != nil {
			t.Errorf("ParsePhases(%q): %v", c.in, err)
			continue
		}
		if got := ps.Canonical(); got != c.want {
			t.Errorf("ParsePhases(%q).Canonical() = %q, want %q", c.in, got, c.want)
		}
		// Canonicalization is idempotent.
		ps2, err := ParsePhases(ps.Canonical())
		if err != nil || ps2.Canonical() != ps.Canonical() {
			t.Errorf("canonical %q not idempotent: %v", ps.Canonical(), err)
		}
	}
}

func TestParsePhasesRejects(t *testing.T) {
	for _, in := range []string{
		"", ",", "NOPE", "HOT:0", "HOT:9999", "HOT:64:-1", "HOT:64:9999",
		"HOTx0", "HOTx999", "HOT:1:2:3", "HOT:a", "HOTxa",
		"BFS:64", "NW:64", "B+T:16", // below the generators' structural floors
		strings.Repeat("HOT,", 40) + "HOT",
	} {
		if _, err := ParsePhases(in); err == nil {
			t.Errorf("ParsePhases(%q) accepted", in)
		}
	}
}

func TestPhaseScheduleGenerate(t *testing.T) {
	ps, err := ParsePhases("HOT:16,HSD:32,HOT:16")
	if err != nil {
		t.Fatal(err)
	}
	app := ps.App()
	tr := app.Generate()
	tr2 := app.Generate()
	if !reflect.DeepEqual(tr.Refs, tr2.Refs) || !reflect.DeepEqual(tr.Segments, tr2.Segments) {
		t.Fatal("phase generation not deterministic")
	}
	if len(tr.Segments) != 3 {
		t.Fatalf("got %d segments, want 3", len(tr.Segments))
	}
	// Phases carry their apps' compute gaps (HOT=4, HSD=2).
	wantGaps := []int{4, 2, 4}
	for i, seg := range tr.Segments {
		if seg.Phase != i || seg.Gap != wantGaps[i] {
			t.Errorf("segment %d = %+v, want phase %d gap %d", i, seg, i, wantGaps[i])
		}
	}
	// Phases overlap one address region: footprint is the max phase's, not
	// the sum (32 sets), and never exceeds the app's nominal pages.
	if app.Sets != 32 {
		t.Errorf("schedule app Sets = %d, want 32", app.Sets)
	}
	if fp := tr.Footprint(); fp > app.Pages() {
		t.Errorf("footprint %d exceeds nominal %d", fp, app.Pages())
	}
	// The shrink phase re-touches pages the grow phase owned.
	g := addrspace.DefaultGeometry()
	lo := g.FirstPage(baseSet)
	for i, p := range tr.Refs {
		if p < lo || p >= lo+addrspace.PageID(app.Pages()) {
			t.Fatalf("ref %d = %v outside the shared region", i, p)
		}
	}
}

func TestPhaseScheduleScaled(t *testing.T) {
	ps, err := ParsePhases("HOT:16,HOT:32")
	if err != nil {
		t.Fatal(err)
	}
	base := ps.App()
	scaled := base.Scaled(2)
	if scaled.Sets != 64 {
		t.Fatalf("scaled Sets = %d, want 64", scaled.Sets)
	}
	tr := scaled.Generate()
	if fp, nominal := tr.Footprint(), base.Generate().Footprint(); fp <= nominal {
		t.Errorf("scaled footprint %d not larger than nominal %d", fp, nominal)
	}
}

func TestParseTenantsCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{"HSD,BFS", "HSD,BFS"},
		{"hsd, bfs", "HSD,BFS"},
		{"HOT,NWx2", "HOT,NWx2"},
		{"HOTx1,NW", "HOT,NW"},
		{"b+t,hot", "B+T,HOT"},
	}
	for _, c := range cases {
		co, err := ParseTenants(c.in)
		if err != nil {
			t.Errorf("ParseTenants(%q): %v", c.in, err)
			continue
		}
		if got := co.Canonical(); got != c.want {
			t.Errorf("ParseTenants(%q).Canonical() = %q, want %q", c.in, got, c.want)
		}
	}
	for _, in := range []string{"", "HSD", "HSD,BFS,HOT,NW,PAT", "HSD,NOPE", "HSDx0,BFS", "HSDx99,BFS"} {
		if _, err := ParseTenants(in); err == nil {
			t.Errorf("ParseTenants(%q) accepted", in)
		}
	}
}

func TestColocationGenerate(t *testing.T) {
	co, err := ParseTenants("HSD,BFS")
	if err != nil {
		t.Fatal(err)
	}
	app := co.App(512)
	tr := app.Generate()
	tr2 := app.Generate()
	if !reflect.DeepEqual(tr.Refs, tr2.Refs) {
		t.Fatal("colocation generation not deterministic")
	}
	if len(tr.Tenants) != 2 {
		t.Fatalf("got %d tenant ranges, want 2", len(tr.Tenants))
	}
	if tr.Tenants[0].Name != "HSD" || tr.Tenants[1].Name != "BFS" {
		t.Fatalf("tenant names %q/%q", tr.Tenants[0].Name, tr.Tenants[1].Name)
	}
	// Ranges are disjoint and cover every reference.
	if tr.Tenants[0].Hi > tr.Tenants[1].Lo {
		t.Fatal("tenant ranges overlap")
	}
	counts := make([]int, 2)
	for i, p := range tr.Refs {
		ten := trace.TenantIndex(tr.Tenants, p)
		if ten < 0 {
			t.Fatalf("ref %d = %v outside every tenant range", i, p)
		}
		counts[ten]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("tenant reference counts %v: both tenants must appear", counts)
	}
	// The interleave quantum holds: within each segment all refs belong to
	// the segment's tenant, and no segment of a live round exceeds the
	// quantum.
	for si, seg := range tr.Segments {
		end := tr.Len()
		if si+1 < len(tr.Segments) {
			end = tr.Segments[si+1].Start
		}
		for _, p := range tr.Refs[seg.Start:end] {
			if trace.TenantIndex(tr.Tenants, p) != seg.Phase {
				t.Fatalf("segment %d (tenant %d) contains foreign ref", si, seg.Phase)
			}
		}
	}
	// Kernel barriers are dropped: co-located processes don't synchronise.
	if len(tr.Barriers) != 0 {
		t.Fatalf("colocated trace has %d barriers, want 0", len(tr.Barriers))
	}
	// Different interleave quanta produce different reference strings — and
	// distinct cache identities.
	other := co.App(128)
	if other.Abbr == app.Abbr {
		t.Fatal("interleave not part of the app identity")
	}
	if reflect.DeepEqual(other.Generate().Refs, tr.Refs) {
		t.Fatal("interleave quantum did not change the interleaving")
	}
}

func TestFromTrace(t *testing.T) {
	src, err := ParsePhases("HOT:16")
	if err != nil {
		t.Fatal(err)
	}
	tr := src.App().Generate()
	app := FromTrace("/tmp/x.hpet", tr)
	if app.Abbr != "trace:/tmp/x.hpet" || app.Pattern != PatternTrace {
		t.Fatalf("unexpected app identity %q/%v", app.Abbr, app.Pattern)
	}
	if got := app.Generate(); got != tr {
		t.Fatal("FromTrace app must return the wrapped trace")
	}
	if app.Sets < 1 || app.Pages() < tr.Footprint() {
		t.Fatalf("Sets %d does not cover footprint %d", app.Sets, tr.Footprint())
	}
}

func TestScenarioPresetsParse(t *testing.T) {
	names := map[string]bool{}
	for _, sc := range Scenarios() {
		if names[sc.Name] {
			t.Errorf("duplicate scenario %q", sc.Name)
		}
		names[sc.Name] = true
		if (sc.Phases == "") == (sc.Tenants == "") {
			t.Errorf("scenario %q must set exactly one of Phases/Tenants", sc.Name)
		}
		if sc.Phases != "" {
			ps, err := ParsePhases(sc.Phases)
			if err != nil {
				t.Errorf("scenario %q: %v", sc.Name, err)
			} else if ps.Canonical() != sc.Phases {
				t.Errorf("scenario %q phases %q not canonical (want %q)", sc.Name, sc.Phases, ps.Canonical())
			}
		}
		if sc.Tenants != "" {
			co, err := ParseTenants(sc.Tenants)
			if err != nil {
				t.Errorf("scenario %q: %v", sc.Name, err)
			} else if co.Canonical() != sc.Tenants {
				t.Errorf("scenario %q tenants %q not canonical (want %q)", sc.Name, sc.Tenants, co.Canonical())
			}
		}
		if _, ok := ScenarioByName(sc.Name); !ok {
			t.Errorf("ScenarioByName(%q) missing", sc.Name)
		}
	}
}

// FuzzPhaseSchedule fuzzes the schedule grammar end to end: parsing and
// canonicalization never panic, the canonical form is a fixed point, and —
// for schedules small enough to generate — the assembled trace's reference
// count equals the sum of its phases' independent generations (phases draw
// from independent RNG streams, so concatenation must be lossless).
func FuzzPhaseSchedule(f *testing.F) {
	for _, sc := range Scenarios() {
		if sc.Phases != "" {
			f.Add(sc.Phases)
		}
	}
	f.Add("HOT:16,HSD:32,HOT:16")
	f.Add("STNx2,STN:16x2")
	f.Add("b+t:32, hot:8:0 x2")
	f.Add("KMN:4,NW:132,GEM:4")
	f.Add("HOT:64:9x3")
	f.Fuzz(func(t *testing.T, s string) {
		ps, err := ParsePhases(s)
		if err != nil {
			return // malformed input rejected: fine
		}
		canon := ps.Canonical()
		ps2, err := ParsePhases(canon)
		if err != nil {
			t.Fatalf("canonical form %q rejected: %v", canon, err)
		}
		if ps2.Canonical() != canon {
			t.Fatalf("canonicalize not idempotent: %q -> %q", canon, ps2.Canonical())
		}
		// Generation cost scales with Σ sets×repeat; cap it so the fuzzer
		// spends its budget on the grammar, not on giant traces.
		work := 0
		for _, p := range ps.Phases() {
			work += p.Sets * p.Repeat
		}
		if work > 768 {
			return
		}
		app := ps.App()
		tr := app.Generate()
		if tr.Len() == 0 {
			t.Fatal("schedule generated an empty trace")
		}
		if len(tr.Segments) == 0 || len(tr.Segments) > len(ps.Phases()) {
			t.Fatalf("%d segments for %d phases", len(tr.Segments), len(ps.Phases()))
		}
		// Total references match the schedule sum: each phase regenerated
		// standalone with its schedule seed contributes exactly its segment.
		sum := 0
		for i, p := range ps.Phases() {
			sum += p.generate(scenarioSeed(canon, i), 1).Len()
		}
		if tr.Len() != sum {
			t.Fatalf("trace has %d refs, schedule sum is %d", tr.Len(), sum)
		}
		// Determinism across calls.
		if tr2 := app.Generate(); !reflect.DeepEqual(tr.Refs, tr2.Refs) {
			t.Fatal("schedule generation not deterministic")
		}
	})
}
