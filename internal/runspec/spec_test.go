package runspec

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"hpe/internal/addrspace"
	"hpe/internal/gpu"
	"hpe/internal/hir"
	"hpe/internal/hpe"
	"hpe/internal/uvm"
)

// TestCanonicalizeDefaultsExplicit pins the canonicalization rules: aliases
// resolve, defaults become explicit, and the result is idempotent.
func TestCanonicalizeDefaultsExplicit(t *testing.T) {
	c, err := Spec{App: " hsd ", Policy: "clock-pro", Rate: 75}.Canonicalize()
	if err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	want := Spec{App: "HSD", Policy: "clockpro", Rate: 75, Seed: 1,
		Design: "l2tlb", Channels: 1, HIR: "off", Scale: 1}
	if c != want {
		t.Errorf("canonical form = %+v, want %+v", c, want)
	}
	again, err := c.Canonicalize()
	if err != nil {
		t.Fatalf("re-canonicalize: %v", err)
	}
	if again != c {
		t.Errorf("canonicalization not idempotent: %+v vs %+v", again, c)
	}
}

// TestOmittedAndExplicitDefaultsShareID is the cache-key hazard test at the
// spec level: a spec with everything omitted and one with every default
// spelled out (including tuning values equal to the paper defaults) must
// canonicalize to one form and one ID. The cross-layer version of this test
// (suite/server/CLI) lives in internal/server.
func TestOmittedAndExplicitDefaultsShareID(t *testing.T) {
	bare := Spec{App: "HSD", Policy: "hpe", Rate: 75}
	spelled := Spec{App: "hsd", Policy: "HPE", Rate: 75, Seed: 1,
		Design: "L2TLB", Channels: 1, HIR: "auto", Scale: 1,
		Tuning: Tuning{WalkLatency: gpu.DefaultWalkLatency, TransferInterval: uvm.DefaultTransferInterval,
			HIREntries: hir.DefaultEntries, SetSizeShift: addrspace.DefaultSetShift,
			HPEInterval: hpe.DefaultIntervalFaults}}
	if bare.ID() != spelled.ID() {
		t.Errorf("omitted vs explicit defaults hashed differently:\n %s\n %s",
			bare.ID(), spelled.ID())
	}
	cb, _ := bare.Canonicalize()
	cs, _ := spelled.Canonicalize()
	if cb != cs {
		t.Errorf("canonical forms differ: %+v vs %+v", cb, cs)
	}
	if !cs.Tuning.isZero() {
		t.Errorf("explicit tuning defaults not folded to zero: %+v", cs.Tuning)
	}
}

// TestCanonicalJSONOmitsZeroTuning pins the canonical wire layout: the tuning
// block is absent for a paper-default run, so adding tuning dimensions never
// perturbs existing IDs.
func TestCanonicalJSONOmitsZeroTuning(t *testing.T) {
	b, err := Spec{App: "KMN", Policy: "lru", Rate: 50}.CanonicalJSON()
	if err != nil {
		t.Fatalf("canonical json: %v", err)
	}
	if strings.Contains(string(b), "tuning") {
		t.Errorf("zero tuning serialized: %s", b)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("canonical json not json: %v", err)
	}
	b2, err := Spec{App: "KMN", Policy: "lru", Rate: 50,
		Tuning: Tuning{WalkLatency: 20}}.CanonicalJSON()
	if err != nil {
		t.Fatalf("canonical json with tuning: %v", err)
	}
	if !strings.Contains(string(b2), `"walk_latency":20`) {
		t.Errorf("tuning deviation missing from canonical json: %s", b2)
	}
}

// TestHIRResolution pins the auto rule: HPE needs the HIR, baselines do not,
// and the sensitivity methodology bypasses it.
func TestHIRResolution(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{App: "HSD", Policy: "hpe", Rate: 75}, "on"},
		{Spec{App: "HSD", Policy: "hpe", Rate: 75, HIR: "auto"}, "on"},
		{Spec{App: "HSD", Policy: "hpe", Rate: 75, HIR: "off"}, "off"},
		{Spec{App: "HSD", Policy: "lru", Rate: 75}, "off"},
		{Spec{App: "HSD", Policy: "lru", Rate: 75, HIR: "on"}, "on"},
		{Spec{App: "HSD", Policy: "hpe", Rate: 75,
			Tuning: Tuning{SensitivityHPE: true}}, "off"},
	}
	for _, tc := range cases {
		c, err := tc.spec.Canonicalize()
		if err != nil {
			t.Errorf("%+v: %v", tc.spec, err)
			continue
		}
		if c.HIR != tc.want {
			t.Errorf("%s/%s hir=%q resolved to %q, want %q",
				tc.spec.Policy, tc.spec.HIR, tc.spec.HIR, c.HIR, tc.want)
		}
	}
	bad := Spec{App: "HSD", Policy: "hpe", Rate: 75, HIR: "on",
		Tuning: Tuning{SensitivityHPE: true}}
	if _, err := bad.Canonicalize(); err == nil {
		t.Error("hir on + sensitivity_hpe accepted")
	}
}

// TestCanonicalizeRejectsInvalid walks the validation error table.
func TestCanonicalizeRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"unknown app", Spec{App: "NOPE", Policy: "lru", Rate: 50}},
		{"unknown policy", Spec{App: "HSD", Policy: "magic", Rate: 50}},
		{"rate zero", Spec{App: "HSD", Policy: "lru", Rate: 0}},
		{"rate over 100", Spec{App: "HSD", Policy: "lru", Rate: 101}},
		{"negative prefetch", Spec{App: "HSD", Policy: "lru", Rate: 50, Prefetch: -1}},
		{"bad design", Spec{App: "HSD", Policy: "lru", Rate: 50, Design: "tlbless"}},
		{"bad hir", Spec{App: "HSD", Policy: "lru", Rate: 50, HIR: "maybe"}},
		{"scale too large", Spec{App: "HSD", Policy: "lru", Rate: 50, Scale: 65}},
		{"negative scale", Spec{App: "HSD", Policy: "lru", Rate: 50, Scale: -2}},
		{"negative tuning", Spec{App: "HSD", Policy: "lru", Rate: 50,
			Tuning: Tuning{WalkLatency: -1}}},
		{"hpe knob on baseline", Spec{App: "HSD", Policy: "lru", Rate: 50,
			Tuning: Tuning{HPEInterval: 32}}},
		{"sensitivity on baseline", Spec{App: "HSD", Policy: "lru", Rate: 50,
			Tuning: Tuning{SensitivityHPE: true}}},
		// Values the simulator cannot run: each one panicked or silently
		// misbehaved in hpe.Run before canonicalization rejected it.
		{"hir entries not a multiple of the ways", Spec{App: "HSD", Policy: "hpe", Rate: 75,
			Tuning: Tuning{HIREntries: 12}}},
		{"hir entries above the cap", Spec{App: "HSD", Policy: "hpe", Rate: 75,
			Tuning: Tuning{HIREntries: maxHIREntries + hir.Ways}}},
		{"prepopulate below rate 100", Spec{App: "HSD", Policy: "lru", Rate: 75,
			Tuning: Tuning{Prepopulate: true}}},
		{"division threshold above the counter cap", Spec{App: "HSD", Policy: "hpe", Rate: 75,
			Tuning: Tuning{HPEDivisionThreshold: 1000}}},
		{"division threshold above a small set's cap", Spec{App: "HSD", Policy: "hpe", Rate: 75,
			Tuning: Tuning{SetSizeShift: 3, HPEDivisionThreshold: 33}}},
		{"set size shift above 5", Spec{App: "HSD", Policy: "hpe", Rate: 75,
			Tuning: Tuning{SetSizeShift: 6}}},
		{"set size shift past the geometry", Spec{App: "HSD", Policy: "hpe", Rate: 75,
			Tuning: Tuning{SetSizeShift: 17}}},
		{"hpe interval above the cap", Spec{App: "HSD", Policy: "hpe", Rate: 75,
			Tuning: Tuning{HPEInterval: maxHPEInterval + 1}}},
		{"walk latency above the cap", Spec{App: "HSD", Policy: "lru", Rate: 75,
			Tuning: Tuning{WalkLatency: maxWalkLatency + 1}}},
		// The engine clock overflowed on this one and the simulator panicked.
		{"walk latency at the int64 limit", Spec{App: "HOT", Policy: "lru", Rate: 75,
			Tuning: Tuning{WalkLatency: math.MaxInt64}}},
		{"transfer interval above the cap", Spec{App: "HSD", Policy: "hpe", Rate: 75,
			Tuning: Tuning{TransferInterval: maxTransferInterval + 1}}},
		{"channels above the cap", Spec{App: "HSD", Policy: "lru", Rate: 75, Channels: maxChannels + 1}},
		{"prefetch past the block", Spec{App: "HSD", Policy: "lru", Rate: 75, Prefetch: maxPrefetch + 1}},
	}
	for _, tc := range cases {
		if _, err := tc.spec.Canonicalize(); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.spec)
		}
	}
}

// TestCanonicalizeAcceptsTuningBounds: the largest (and smallest) value
// each bounded knob allows stays valid, and the simulator runs it (hpe.Run's
// path: Materialize, then gpu.Run) without a panic.
func TestCanonicalizeAcceptsTuningBounds(t *testing.T) {
	for _, sp := range []Spec{
		{App: "HSD", Policy: "hpe", Rate: 75, Tuning: Tuning{HIREntries: hir.Ways}},
		{App: "HSD", Policy: "hpe", Rate: 75, Tuning: Tuning{HIREntries: maxHIREntries}},
		{App: "HSD", Policy: "hpe", Rate: 75, Tuning: Tuning{HPEInterval: maxHPEInterval}},
		{App: "HSD", Policy: "hpe", Rate: 75, Tuning: Tuning{SetSizeShift: 5, HPEDivisionThreshold: 128}},
		{App: "HSD", Policy: "hpe", Rate: 75, Tuning: Tuning{HPEDivisionThreshold: 64}},
		{App: "HSD", Policy: "lru", Rate: 100, Tuning: Tuning{Prepopulate: true}},
		{App: "HOT", Policy: "lru", Rate: 75, Tuning: Tuning{WalkLatency: maxWalkLatency}},
		{App: "HOT", Policy: "hpe", Rate: 75, Tuning: Tuning{TransferInterval: maxTransferInterval}},
		{App: "HOT", Policy: "lru", Rate: 75, Channels: maxChannels},
		{App: "HOT", Policy: "lru", Rate: 75, Prefetch: maxPrefetch},
	} {
		if _, err := sp.Canonicalize(); err != nil {
			t.Errorf("%+v rejected: %v", sp, err)
			continue
		}
		m, err := sp.Materialize(Env{})
		if err != nil {
			t.Errorf("%+v: materialize: %v", sp, err)
			continue
		}
		if r := gpu.Run(m.Config, m.Trace, m.Policy); r.Accesses == 0 {
			t.Errorf("%+v: the run simulated no accesses", sp)
		}
	}
}

// TestIDVersioned pins the ID schema prefix; bumping IDVersion must be a
// deliberate act (see the const's comment).
func TestIDVersioned(t *testing.T) {
	id := Spec{App: "HSD", Policy: "lru", Rate: 75}.ID()
	if !strings.HasPrefix(id, "run-v2-") {
		t.Errorf("ID %q lacks the run-v2- prefix", id)
	}
	if len(id) != len("run-v2-")+32 {
		t.Errorf("ID %q is not 16 hash bytes hex-encoded", id)
	}
}

// TestDecodeRejectsUnknownFields: a typoed knob must fail loudly, not alias
// two different runs onto one content address.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"app":"HSD","policy":"lru","rate":50,"prefetch":2}`)); err == nil {
		t.Error("unknown field accepted")
	}
	sp, err := Decode(strings.NewReader(`{"app":"hsd","policy":"clock-pro","rate":50}`))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sp.Policy != "clockpro" || sp.Seed != 1 {
		t.Errorf("decode did not canonicalize: %+v", sp)
	}
}

// TestVariantLabelAndSlug pins the display vocabulary used by progress lines
// and trace file names.
func TestVariantLabelAndSlug(t *testing.T) {
	cases := []struct {
		spec  Spec
		label string
		slug  string
	}{
		{Spec{App: "HSD", Policy: "lru", Rate: 75}, "", "HSD_lru_75"},
		{Spec{App: "B+T", Policy: "hpe", Rate: 50, Tuning: Tuning{WalkLatency: 20}},
			"walk20", "B-T_hpe_50_walk20"},
		{Spec{App: "SAD", Policy: "clock-pro", Rate: 100, Channels: 4},
			"ch4", "SAD_clockpro_100_ch4"},
		{Spec{App: "HSD", Policy: "hpe", Rate: 75, HIR: "off"}, "nohir", "HSD_hpe_75_nohir"},
		{Spec{App: "HSD", Policy: "hpe", Rate: 75,
			Tuning: Tuning{SensitivityHPE: true, SetSizeShift: 3}},
			"sens-setsize8", "HSD_hpe_75_sens-setsize8"},
		{Spec{App: "GEM", Policy: "lru", Rate: 100, Design: "pwc",
			Tuning: Tuning{Prepopulate: true}}, "prepop-pwc", "GEM_lru_100_prepop-pwc"},
	}
	for _, tc := range cases {
		if got := tc.spec.VariantLabel(); got != tc.label {
			t.Errorf("%+v VariantLabel = %q, want %q", tc.spec, got, tc.label)
		}
		if got := tc.spec.Slug(); got != tc.slug {
			t.Errorf("%+v Slug = %q, want %q", tc.spec, got, tc.slug)
		}
	}
}
