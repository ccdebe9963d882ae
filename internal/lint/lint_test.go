package lint

import (
	"strings"
	"testing"
)

// requireMin asserts the fixture produced at least min diagnostics from the
// named analyzer — the acceptance floor: every analyzer demonstrates at
// least two want-annotated findings in its fixture package.
func requireMin(t *testing.T, diags []Diagnostic, name string, min int) {
	t.Helper()
	if n := countByAnalyzer(diags)[name]; n < min {
		t.Errorf("fixture produced %d %s diagnostics (by analyzer: %v), want >= %d",
			n, name, sortedKeys(countByAnalyzer(diags)), min)
	}
}

func TestDeterminismFixture(t *testing.T) {
	diags := runFixture(t, "determinism", AnalyzerDeterminism)
	requireMin(t, diags, "determinism", 2)
}

func TestMapOrderFixture(t *testing.T) {
	diags := runFixture(t, "maporder", AnalyzerMapOrder)
	requireMin(t, diags, "maporder", 2)
}

func TestProbeGuardFixture(t *testing.T) {
	diags := runFixture(t, "probeguard", AnalyzerProbeGuard)
	requireMin(t, diags, "probeguard", 2)
}

func TestCtxFlowFixture(t *testing.T) {
	diags := runFixture(t, "ctxflow", AnalyzerCtxFlow)
	requireMin(t, diags, "ctxflow", 2)
}

func TestLockedFixture(t *testing.T) {
	diags := runFixture(t, "locked", AnalyzerLocked)
	requireMin(t, diags, "locked", 2)
}

func TestSpecSourceFixture(t *testing.T) {
	diags := runFixture(t, "specsource", AnalyzerSpecSource)
	requireMin(t, diags, "specsource", 2)
}

func TestEnvelopeFixture(t *testing.T) {
	diags := runFixture(t, "envelope", AnalyzerEnvelope)
	requireMin(t, diags, "envelope", 2)
}

func TestHotAllocFixture(t *testing.T) {
	diags := runFixture(t, "hotalloc", AnalyzerHotAlloc)
	requireMin(t, diags, "hotalloc", 2)
}

func TestLockOrderFixture(t *testing.T) {
	diags := runFixture(t, "lockorder", AnalyzerLockOrder)
	requireMin(t, diags, "lockorder", 2)
}

// TestIgnoreFixture proves the suppression contract: a directive silences
// exactly the named analyzer on exactly the next line, and every other
// directive shape (wrong analyzer, wrong line, no violation, malformed,
// unknown analyzer, missing reason) is itself reported.
func TestIgnoreFixture(t *testing.T) {
	diags := runFixture(t, "ignorefix", AnalyzerDeterminism, AnalyzerMapOrder)
	counts := countByAnalyzer(diags)
	// Five unsuppressed determinism findings (WrongName, WrongLine,
	// Malformed, Unknown, NoReason) — the Suppressed one must be absent.
	if counts["determinism"] != 5 {
		t.Errorf("ignore fixture: %d determinism diagnostics escaped suppression, want 5", counts["determinism"])
	}
	// Six directive problems: unused (wrong analyzer), unused (wrong
	// line), unused (no violation), malformed, unknown, missing reason.
	if counts[ignoreAnalyzerName] != 6 {
		t.Errorf("ignore fixture: %d directive diagnostics, want 6", counts[ignoreAnalyzerName])
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "suppression mechanism silences") {
			t.Errorf("suppressed diagnostic leaked: %s", d.Message)
		}
	}
}

// TestRunOnProductionPackages is the self-hosting smoke test: the
// production driver (go-list loading, scoped analyzers, directive
// filtering) must report a clean bill for packages the burn-down already
// cleared, through the same path cmd/hpelint uses.
func TestRunOnProductionPackages(t *testing.T) {
	root, err := repoRootDir()
	if err != nil {
		t.Fatalf("repo root: %v", err)
	}
	diags, err := Run(root, []string{"./internal/probe/", "./internal/server/", "./internal/lint/"}, All())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d.String())
	}
}

// TestAnalyzerNamesStable pins the registry order the -json schema and
// //lint:ignore directives key on.
func TestAnalyzerNamesStable(t *testing.T) {
	got := strings.Join(AnalyzerNames(), ",")
	want := "ctxflow,determinism,envelope,hotalloc,locked,lockorder,maporder,probeguard,specsource"
	if got != want {
		t.Errorf("AnalyzerNames() = %s, want %s", got, want)
	}
	if _, err := ByName([]string{"probeguard", "ctxflow"}); err != nil {
		t.Errorf("ByName on known analyzers: %v", err)
	}
	if _, err := ByName([]string{"bogus"}); err == nil {
		t.Errorf("ByName(bogus) should error")
	}
	// Names are trimmed, and a repeat selects its analyzer once, at its
	// first position: an analyzer never runs (or reports) twice.
	for _, tc := range []struct {
		in   []string
		want string
	}{
		{[]string{"specsource", "specsource"}, "specsource"},
		{[]string{" specsource"}, "specsource"},
		{[]string{"probeguard", " ctxflow ", "probeguard", "ctxflow"}, "probeguard,ctxflow"},
	} {
		as, err := ByName(tc.in)
		if err != nil {
			t.Errorf("ByName(%q): %v", tc.in, err)
			continue
		}
		var got []string
		for _, a := range as {
			got = append(got, a.Name)
		}
		if strings.Join(got, ",") != tc.want {
			t.Errorf("ByName(%q) = %v, want %s", tc.in, got, tc.want)
		}
	}
}
