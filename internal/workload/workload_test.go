package workload

import (
	"reflect"
	"runtime"
	"testing"

	"hpe/internal/addrspace"
	"hpe/internal/trace"
)

func TestCatalogMatchesTableII(t *testing.T) {
	apps := Catalog()
	if len(apps) != 23 {
		t.Fatalf("catalog has %d apps, want 23 (Table II)", len(apps))
	}
	// Table II membership.
	want := map[PatternType][]string{
		PatternStreaming:           {"HOT", "LEU", "CUT", "2DC", "GEM"},
		PatternThrashing:           {"SRD", "HSD", "MRQ", "STN"},
		PatternPartRepetitive:      {"PAT", "DWT", "BKP", "KMN", "SAD"},
		PatternMostRepetitive:      {"NW", "BFS", "MVT"},
		PatternRepetitiveThrashing: {"HWL", "SGM", "HIS", "SPV"},
		PatternRegionMoving:        {"B+T", "HYB"},
	}
	for pt, abbrs := range want {
		got := ByPattern(pt)
		if len(got) != len(abbrs) {
			t.Errorf("%v: %d apps, want %d", pt, len(got), len(abbrs))
			continue
		}
		for i, a := range got {
			if a.Abbr != abbrs[i] {
				t.Errorf("%v[%d] = %s, want %s", pt, i, a.Abbr, abbrs[i])
			}
		}
	}
	seen := map[string]bool{}
	for _, a := range apps {
		if seen[a.Abbr] {
			t.Errorf("duplicate abbreviation %s", a.Abbr)
		}
		seen[a.Abbr] = true
		if a.Suite != "Rodinia" && a.Suite != "Parboil" && a.Suite != "Polybench" {
			t.Errorf("%s: unknown suite %q", a.Abbr, a.Suite)
		}
		if a.Sets <= 0 || a.ComputeGap < 0 {
			t.Errorf("%s: bad parameters %+v", a.Abbr, a)
		}
	}
}

func TestByAbbr(t *testing.T) {
	a, ok := ByAbbr("HSD")
	if !ok || a.Name != "hotspot3D" {
		t.Fatalf("ByAbbr(HSD) = %+v, %v", a, ok)
	}
	if _, ok := ByAbbr("NOPE"); ok {
		t.Fatal("ByAbbr(NOPE) found something")
	}
}

func TestAbbrsAndPatternTypes(t *testing.T) {
	if len(Catalog()) != 23 {
		t.Fatalf("catalog holds %d applications, want 23", len(Catalog()))
	}
	pts := PatternTypes()
	if len(pts) != 6 {
		t.Fatalf("PatternTypes() = %v, want 6 types", pts)
	}
	for i, p := range pts {
		if int(p) != i+1 {
			t.Fatalf("PatternTypes() = %v, want I..VI ascending", pts)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, abbr := range []string{"HOT", "HSD", "KMN", "BFS", "NW", "B+T"} {
		a, _ := ByAbbr(abbr)
		t1, t2 := a.Generate(), a.Generate()
		if !reflect.DeepEqual(t1.Refs, t2.Refs) {
			t.Errorf("%s: generation is not deterministic", abbr)
		}
	}
}

func TestGenerateFootprints(t *testing.T) {
	for _, a := range Catalog() {
		tr := a.Generate()
		if tr.Len() == 0 {
			t.Errorf("%s: empty trace", a.Abbr)
			continue
		}
		fp := tr.Footprint()
		// Footprint should be close to the nominal Sets×16 pages. MVT (stride
		// 4) touches only a quarter of each set; NW touches all pages.
		nominal := a.Pages()
		lo := nominal / 5
		if fp < lo || fp > nominal {
			t.Errorf("%s: footprint %d pages outside (%d, %d]", a.Abbr, fp, lo, nominal)
		}
		if tr.Len() > 2_000_000 {
			t.Errorf("%s: trace too long (%d refs) for practical simulation", a.Abbr, tr.Len())
		}
	}
}

func TestStreamingPatternCounts(t *testing.T) {
	b := NewBuilder(addrspace.DefaultGeometry(), 100, 1)
	Streaming(b, 4, 2)
	tr := b.Build("s")
	if tr.Footprint() != 4*16 {
		t.Fatalf("footprint = %d, want 64", tr.Footprint())
	}
	for p, c := range tr.Counts() {
		if c != 2 {
			t.Fatalf("page %v referenced %d times, want 2", p, c)
		}
	}
	// One pass: pages appear in ascending order of first touch.
	last := addrspace.PageID(0)
	for _, p := range tr.Refs {
		if p < last {
			t.Fatal("streaming pattern went backwards")
		}
		last = p
	}
}

func TestThrashingPatternCounts(t *testing.T) {
	b := NewBuilder(addrspace.DefaultGeometry(), 0, 1)
	Thrashing(b, 3, 4, 1)
	tr := b.Build("t")
	for p, c := range tr.Counts() {
		if c != 4 {
			t.Fatalf("page %v count %d, want 4 (passes)", p, c)
		}
	}
	if tr.Len() != 3*16*4 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestPartRepetitiveRevisitsWholeSets(t *testing.T) {
	g := addrspace.DefaultGeometry()
	b := NewBuilder(g, 0, 42)
	PartRepetitive(b, 50, 0.5, 5, 1)
	tr := b.Build("p")
	// Per-set counts must be multiples of 16 (whole-set revisits keep
	// counters regular).
	setCounts := map[addrspace.SetID]int{}
	for _, p := range tr.Refs {
		setCounts[g.SetOf(p)]++
	}
	revisited := 0
	for s, c := range setCounts {
		if c%16 != 0 {
			t.Fatalf("set %v count %d not a multiple of 16", s, c)
		}
		if c > 16 {
			revisited++
		}
	}
	if revisited == 0 {
		t.Fatal("no sets were revisited with prob 0.5")
	}
}

func TestPartRepetitiveIrregularProducesIrregularCounters(t *testing.T) {
	g := addrspace.DefaultGeometry()
	b := NewBuilder(g, 0, 42)
	PartRepetitiveIrregular(b, 80, 0.6, 6, 1)
	p := trace.Profiler(b.Build("k"), g)
	_, irregular, _, _ := p.CounterClasses(16)
	if irregular == 0 {
		t.Fatal("irregular variant produced no irregular set counters")
	}
}

func TestStridedRepetitiveTouchesOnlyStridePages(t *testing.T) {
	g := addrspace.DefaultGeometry()
	b := NewBuilder(g, 0, 1)
	StridedRepetitive(b, 4, 4, 3, 1)
	tr := b.Build("mvt")
	for _, p := range tr.Refs {
		if g.Offset(p)%4 != 0 {
			t.Fatalf("page %v at offset %d, want stride-4 offsets only", p, g.Offset(p))
		}
	}
	if tr.Footprint() != 4*4 {
		t.Fatalf("footprint = %d, want 16 (4 pages × 4 sets)", tr.Footprint())
	}
	for _, c := range tr.Counts() {
		if c != 3 {
			t.Fatalf("count = %d, want visits=3", c)
		}
	}
}

func TestRegionMovingLocality(t *testing.T) {
	g := addrspace.DefaultGeometry()
	b := NewBuilder(g, 0, 7)
	sets, regions := 40, 4
	RegionMoving(b, sets, regions, 3, 1)
	// Once the pattern leaves a region it never returns: the maximum region
	// index seen so far must be non-decreasing and earlier regions must not
	// reappear after a later one starts.
	per := sets / regions
	maxRegion := -1
	for i, p := range b.Build("region").Refs {
		r := int(g.SetOf(p)) / per
		if r > maxRegion {
			maxRegion = r
		}
		if r < maxRegion {
			t.Fatalf("ref %d revisits region %d after region %d started", i, r, maxRegion)
		}
	}
	if maxRegion != regions-1 {
		t.Fatalf("covered %d regions, want %d", maxRegion+1, regions)
	}
}

func TestFrontierWithThrashSweeps(t *testing.T) {
	g := addrspace.DefaultGeometry()
	b := NewBuilder(g, 0, 3)
	FrontierWithThrash(b, 64, 24, 8, 2, 1)
	tr := b.Build("bfs")
	if tr.Footprint() != 64*16 {
		t.Fatalf("footprint = %d, want %d", tr.Footprint(), 64*16)
	}
	// Early sets must be re-referenced late (the final sweep), producing the
	// large reuse distances that break LRU.
	fi := trace.BuildFutureIndex(tr)
	firstPage := g.FirstPage(0)
	lastUse := -1
	for pos := -1; ; {
		n, ok := fi.NextUse(firstPage, pos)
		if !ok {
			break
		}
		lastUse = n
		pos = n
	}
	if lastUse < tr.Len()*3/4 {
		t.Fatalf("first page's last use at %d/%d; expected a late full sweep", lastUse, tr.Len())
	}
}

func TestGEMMHasCyclicBRegion(t *testing.T) {
	a, _ := ByAbbr("GEM")
	tr := a.Generate()
	counts := tr.Counts()
	// B-region pages must be referenced ~8 times (once per block sweep);
	// streamed A pages ~2 (dups).
	var reusedPages int
	for _, c := range counts {
		if c >= 6 {
			reusedPages++
		}
	}
	if reusedPages < a.Pages()/2 {
		t.Fatalf("only %d pages heavily reused; GEM needs a dominant cyclic B region", reusedPages)
	}
}

func TestSRADHaloRetouch(t *testing.T) {
	a, _ := ByAbbr("SRD")
	tr := a.Generate()
	counts := tr.Counts()
	// Every interior page is touched 3×/pass (2 dups + 1 halo) over 4 passes.
	g := addrspace.DefaultGeometry()
	interior := g.PageAt(baseSet+5, 0)
	if counts[interior] != 4*3 {
		t.Fatalf("interior page count = %d, want 12", counts[interior])
	}
}

func TestBuilderOffsets(t *testing.T) {
	b := NewBuilder(addrspace.DefaultGeometry(), 0, 1)
	if got := b.EvenOffsets(); len(got) != 8 || got[0] != 0 || got[7] != 14 {
		t.Fatalf("EvenOffsets = %v", got)
	}
	if got := b.OddOffsets(); len(got) != 8 || got[0] != 1 || got[7] != 15 {
		t.Fatalf("OddOffsets = %v", got)
	}
	if got := b.StrideOffsets(4); !reflect.DeepEqual(got, []int{0, 4, 8, 12}) {
		t.Fatalf("StrideOffsets(4) = %v", got)
	}
}

func TestBuilderTouchMinimumOne(t *testing.T) {
	b := NewBuilder(addrspace.DefaultGeometry(), 0, 1)
	b.Touch(5, 0) // dups 0 still emits one reference
	if b.Len() != 1 {
		t.Fatalf("Touch(_, 0) emitted %d refs, want 1", b.Len())
	}
}

func TestPatternTypeString(t *testing.T) {
	if PatternStreaming.String() != "Type I" || PatternRegionMoving.String() != "Type VI" {
		t.Fatal("PatternType.String mismatch")
	}
	if PatternType(99).String() == "" {
		t.Fatal("unknown pattern type renders empty")
	}
}

func BenchmarkGenerateCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, a := range Catalog() {
			a.Generate()
		}
	}
}

func TestGenNWAlternatesPhases(t *testing.T) {
	app, _ := ByAbbr("NW")
	tr := app.Generate()
	g := addrspace.DefaultGeometry()
	// The matrix region's first set: even pages must appear before any odd
	// page, and odd pages must appear again before the trace ends (E-O-E-O).
	first := g.PageAt(baseSet, 0)    // even page
	firstOdd := g.PageAt(baseSet, 1) // odd page
	counts := tr.Counts()
	if counts[first] == 0 || counts[firstOdd] == 0 {
		t.Fatal("matrix pages untouched")
	}
	// Even pages are touched in 2 iterations × 8 rounds = 16 times.
	if counts[first] != 16 {
		t.Fatalf("even matrix page touched %d times, want 16", counts[first])
	}
	if counts[firstOdd] != 16 {
		t.Fatalf("odd matrix page touched %d times, want 16", counts[firstOdd])
	}
	// Kernel barriers: 4 phases × 8 rounds.
	if len(tr.Barriers) < 30 {
		t.Fatalf("NW has %d barriers, want ~32", len(tr.Barriers))
	}
	// Scratch sets touch only 12 of 16 pages.
	matrix := app.Sets - 4*8*4
	scratchSet := baseSet + addrspace.SetID(matrix)
	touched := 0
	for off := 0; off < 16; off++ {
		if counts[g.PageAt(scratchSet, off)] > 0 {
			touched++
		}
	}
	if touched != 12 {
		t.Fatalf("scratch set touched %d pages, want 12", touched)
	}
}

func TestRegionMovingHotHeaderSpread(t *testing.T) {
	g := addrspace.DefaultGeometry()
	b := NewBuilder(g, 0, 9)
	RegionMovingHot(b, 80, 16, 2, 3, 1)
	tr := b.Build("t")
	refs := tr.Refs
	// Header sets (0..15) must be interleaved through each round, not
	// clustered: between consecutive header touches there should never be
	// more than ~a quarter of a round of region touches.
	lastHeaderPos := 0
	maxGap := 0
	for i, p := range refs {
		if int(g.SetOf(p)) < 16 {
			if gap := i - lastHeaderPos; gap > maxGap {
				maxGap = gap
			}
			lastHeaderPos = i
		}
	}
	roundLen := (32*16 + 16*12) // region sets + header pages per round
	if maxGap > roundLen/2 {
		t.Fatalf("header gap %d exceeds half a round (%d): touches clustered", maxGap, roundLen/2)
	}
	// Each round touches a random 12-of-16 subset of a header set, so
	// per-page counts end up uneven — the source of the irregular counters
	// that classify these apps onto LRU.
	counts := tr.Counts()
	first := counts[g.PageAt(0, 0)]
	uneven := false
	for off := 1; off < 16; off++ {
		if counts[g.PageAt(0, off)] != first {
			uneven = true
			break
		}
	}
	if !uneven {
		t.Fatal("header page counts are uniform; want partial-subset unevenness")
	}
}

func TestRegionMovingHotPanicsOnBadHeader(t *testing.T) {
	b := NewBuilder(addrspace.DefaultGeometry(), 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("hotSets >= sets accepted")
		}
	}()
	RegionMovingHot(b, 10, 10, 2, 2, 1)
}

func TestFrontierWithThrashPanicsOnBadHot(t *testing.T) {
	b := NewBuilder(addrspace.DefaultGeometry(), 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("hotSets 0 accepted")
		}
	}()
	FrontierWithThrash(b, 10, 0, 2, 1, 1)
}

func TestBarrierDeduplication(t *testing.T) {
	b := NewBuilder(addrspace.DefaultGeometry(), 0, 1)
	b.TouchSet(0, 1)
	b.Barrier()
	b.Barrier() // collapses
	b.TouchSet(1, 1)
	b.Barrier()
	// The double barrier collapses, and trace.New drops the trailing one.
	if tr := b.Build("t"); !reflect.DeepEqual(tr.Barriers, []int{16}) {
		t.Fatalf("trace barriers = %v, want only the interior one at 16", tr.Barriers)
	}
}

// TestGenerateAllocationBound bounds what one generation allocates: each
// catalog app at scale 4 builds its trace for at most 2.5× its final
// reference bytes (chunks plus the one exact copy come to about 2×), and
// the trace's Refs carries no spare capacity.
func TestGenerateAllocationBound(t *testing.T) {
	const (
		bound       = 2.5
		pageIDBytes = 8 // addrspace.PageID is a uint64
	)
	for _, a := range Catalog() {
		app := a.Scaled(4)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr := app.Generate()
		runtime.ReadMemStats(&after)
		kept := float64(len(tr.Refs) * pageIDBytes)
		if ratio := float64(after.TotalAlloc-before.TotalAlloc) / kept; ratio > bound {
			t.Errorf("%s at scale 4: allocated %.2f× its %.0f reference bytes, bound %.1f×", a.Abbr, ratio, kept, bound)
		}
		if len(tr.Refs) != cap(tr.Refs) {
			t.Errorf("%s at scale 4: len(Refs) %d, cap %d", a.Abbr, len(tr.Refs), cap(tr.Refs))
		}
	}
}

// TestCatalogReturnsCallerOwnedCopy checks that the catalog built at init
// is not aliased by Catalog's result: a caller that edits its slice changes
// neither later Catalog calls nor ByAbbr lookups.
func TestCatalogReturnsCallerOwnedCopy(t *testing.T) {
	cat := Catalog()
	want := cat[0]
	cat[0].Sets = -1
	cat[0].Abbr = "XXX"
	if got := Catalog()[0]; got.Abbr != want.Abbr || got.Sets != want.Sets {
		t.Fatalf("Catalog()[0] = %s/%d after a caller's edit, want %s/%d", got.Abbr, got.Sets, want.Abbr, want.Sets)
	}
	if got, ok := ByAbbr(want.Abbr); !ok || got.Sets != want.Sets {
		t.Fatalf("ByAbbr(%s) = %d, %v after a caller's edit, want %d, true", want.Abbr, got.Sets, ok, want.Sets)
	}
}
