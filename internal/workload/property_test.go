package workload

import (
	"reflect"
	"testing"
	"testing/quick"

	"hpe/internal/addrspace"
	"hpe/internal/trace"
)

// Property tests for the Table II generators: every catalog app must
// generate deterministically, stay inside its declared footprint, and emit
// well-formed barriers — at its catalog footprint and at every scale a run
// spec may request (App.Scaled, factors 1–64). FuzzCatalogGenerate extends
// the same invariants to fuzzed (app, scale) combinations; `go test` runs
// its seed corpus on every invocation and `go test -fuzz=FuzzCatalogGenerate`
// mutates beyond it.

// maxScale is the largest footprint multiplier a run spec accepts (the
// runspec "scale" field's [1,64] range).
const maxScale = 64

// checkTraceInvariants asserts the generator contract for one generated
// trace of app.
func checkTraceInvariants(t *testing.T, app App, tr *trace.Trace) {
	t.Helper()
	if tr.Name != app.Abbr {
		t.Errorf("%s: trace named %q", app.Abbr, tr.Name)
	}
	if tr.Len() == 0 {
		t.Fatalf("%s: empty trace", app.Abbr)
	}
	// Every page ID falls inside the declared allocation: [base, base+Pages()),
	// where base is the workload allocation origin (apps.go baseSet).
	lo := addrspace.DefaultGeometry().FirstPage(baseSet)
	hi := lo + addrspace.PageID(app.Pages())
	for i, p := range tr.Refs {
		if p < lo || p >= hi {
			t.Fatalf("%s: ref %d = %v outside declared footprint [%v, %v)", app.Abbr, i, p, lo, hi)
		}
	}
	// The measured footprint never exceeds the app's nominal pages.
	if fp := tr.Footprint(); fp < 1 || fp > app.Pages() {
		t.Errorf("%s: footprint %d pages outside (0, %d]", app.Abbr, fp, app.Pages())
	}
	// Barriers are strictly ascending and strictly inside the trace.
	prev := 0
	for _, b := range tr.Barriers {
		if b <= prev || b >= tr.Len() {
			t.Errorf("%s: malformed barrier %d (prev %d, len %d)", app.Abbr, b, prev, tr.Len())
		}
		prev = b
	}
}

// checkScaledApp generates the selected catalog app at the selected scale
// twice and checks determinism plus the trace invariants.
func checkScaledApp(t *testing.T, appSel, scaleSel uint8) {
	t.Helper()
	cat := Catalog()
	app := cat[int(appSel)%len(cat)].Scaled(1 + int(scaleSel)%maxScale)
	t1, t2 := app.Generate(), app.Generate()
	if !reflect.DeepEqual(t1.Refs, t2.Refs) || !reflect.DeepEqual(t1.Barriers, t2.Barriers) {
		t.Fatalf("%s at %d sets: Generate() not deterministic", app.Abbr, app.Sets)
	}
	checkTraceInvariants(t, app, t1)
}

func TestCatalogGenerateDeterministic(t *testing.T) {
	for _, app := range Catalog() {
		t1, t2 := app.Generate(), app.Generate()
		if t1.Name != t2.Name || !reflect.DeepEqual(t1.Refs, t2.Refs) ||
			!reflect.DeepEqual(t1.Barriers, t2.Barriers) {
			t.Errorf("%s: Generate() is not deterministic across calls", app.Abbr)
		}
	}
}

func TestCatalogGenerateInvariants(t *testing.T) {
	for _, app := range Catalog() {
		checkTraceInvariants(t, app, app.Generate())
	}
}

// TestCatalogSetsClearPhaseFloor pins what lets generators run without a
// clamp: every catalog footprint already meets its generator's structural
// floor, and scaling only grows it.
func TestCatalogSetsClearPhaseFloor(t *testing.T) {
	for _, app := range Catalog() {
		if floor := phaseFloor(app); app.Sets < floor {
			t.Errorf("%s: %d sets below the generator floor %d", app.Abbr, app.Sets, floor)
		}
	}
}

// TestCatalogScaleProperty drives the invariants through testing/quick over
// random (app, scale) combinations — the quick-check fallback for
// environments that never run the fuzzer.
func TestCatalogScaleProperty(t *testing.T) {
	prop := func(appSel, scaleSel uint8) bool {
		checkScaledApp(t, appSel, scaleSel)
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// FuzzCatalogGenerate fuzzes (app, scale) selection. The seed corpus covers
// every catalog app at scales 1 through 4, so plain `go test` exercises all
// of them.
func FuzzCatalogGenerate(f *testing.F) {
	for i := range Catalog() {
		for scale := 1; scale <= 4; scale++ {
			f.Add(uint8(i), uint8(scale-1))
		}
	}
	f.Fuzz(checkScaledApp)
}
