// Package runspec defines the canonical, content-addressed description of
// one simulation run. A Spec is the single vocabulary every layer speaks:
// the experiment suite keys its memo caches on Spec IDs, hped decodes POST
// /v1/runs bodies straight into Specs, the CLIs build Specs from flags, and
// the facade's hpe.Run(spec) entry point materializes a Spec into the
// (gpu.Config, Trace, Policy) triple the simulator consumes.
//
// The lifecycle is: build a Spec (by hand, from flags, or from JSON) →
// Canonicalize (defaults made explicit, aliases resolved, invalid fields
// rejected) → ID (sha256 of the canonical JSON, versioned) → Materialize.
// Because canonicalization is the only place defaults are applied, an
// omitted field and its explicit default always produce the same ID — the
// property consistent-hash sharding and result caching depend on.
//
// DESIGN.md §12 documents the fields, the canonicalization rules, and how to
// add a dimension without perturbing existing IDs.
package runspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"hpe/internal/addrspace"
	"hpe/internal/gpu"
	"hpe/internal/hir"
	"hpe/internal/hpe"
	"hpe/internal/registry"
	"hpe/internal/uvm"
	"hpe/internal/workload"
)

// IDVersion is the run-ID schema version, embedded in every ID ("run-v2-…").
// Bump it when a canonicalization rule or the canonical JSON layout changes
// meaning: old and new servers then disagree loudly (distinct cache
// namespaces) instead of silently serving each other's results.
const IDVersion = "v2"

// Spec is the complete typed description of one simulation run. The zero
// value of every field means "paper default"; Canonicalize makes defaults
// explicit. A canonical Spec is comparable (usable as a map key) and
// marshals to a deterministic canonical JSON form.
type Spec struct {
	// App is the workload abbreviation ("HSD"); case-insensitive on input,
	// canonicalized to the catalog spelling.
	App string `json:"app"`
	// Policy is a registry policy name or alias ("clock-pro"); canonicalized
	// to the registry key ("clockpro").
	Policy string `json:"policy"`
	// Rate is the oversubscription rate in percent: device memory holds
	// rate% of the workload footprint. Must be in (0, 100].
	Rate int `json:"rate"`
	// Seed feeds randomised policies; 0 means the default seed 1.
	Seed int64 `json:"seed"`
	// Design selects the translation design: "l2tlb" (default) or "pwc".
	Design string `json:"design"`
	// Prefetch is the number of extra pages migrated per fault from the
	// same 64-KB block: at most 15, the rest of the block.
	Prefetch int `json:"prefetch_pages"`
	// Channels is the number of parallel fault-service channels, at most
	// 64; 0 means the paper's serial driver (1).
	Channels int `json:"channels"`
	// DataPath turns on the Table I data-hierarchy model.
	DataPath bool `json:"datapath"`
	// HIR attaches the hit-information cache: "on", "off", or "" / "auto"
	// (resolve from the policy — HPE needs it, the baselines do not).
	HIR string `json:"hir"`
	// Scale multiplies the workload footprint (page sets) for scale studies
	// beyond the Table II geometries; 0 means the paper's geometry (1).
	Scale int `json:"scale"`
	// MaxCycles aborts a runaway simulation; 0 means unlimited.
	MaxCycles uint64 `json:"max_cycles"`
	// Phases selects a temporal phase-schedule workload instead of App: a
	// workload.ParsePhases string ("HOT:32,HSD:96,HOT:32"), canonicalized.
	// App, Phases, and Tenants are mutually exclusive workload sources; all
	// three are omitted from the canonical JSON when empty, so stationary
	// (v1) specs keep their pre-scenario IDs.
	Phases string `json:"phases,omitempty"`
	// Tenants selects a multi-tenant colocation workload instead of App: a
	// workload.ParseTenants string ("HSD,BFS"), canonicalized.
	Tenants string `json:"tenants,omitempty"`
	// Interleave is the colocation scheduling quantum in references.
	// Requires Tenants; 0 means the 1024 default (made explicit, so an
	// omitted quantum and a spelled-out default share one ID).
	Interleave int `json:"interleave,omitempty"`
	// Tuning holds the rarely-used experiment knobs. The zero value is the
	// paper configuration and is omitted from the canonical JSON, so adding
	// a Tuning dimension never changes the ID of any existing run.
	Tuning Tuning `json:"tuning,omitzero"`
}

// Tuning collects the low-level knobs the sensitivity and extension studies
// sweep. Zero always means the paper default (Canonicalize folds explicit
// defaults back to zero), so Tuning's canonical JSON only carries deviations.
type Tuning struct {
	// WalkLatency overrides the page-table-walk latency in cycles
	// (default 8, at most 512; the §V-B study uses 20).
	WalkLatency int `json:"walk_latency,omitempty"`
	// TransferInterval overrides the HIR drain interval in faults
	// (default 16, at most 1024).
	TransferInterval int `json:"transfer_interval,omitempty"`
	// Prepopulate maps the footprint before the first access (translation
	// and data-path studies: no demand-paging faults).
	Prepopulate bool `json:"prepopulate,omitempty"`
	// HIREntries overrides the HIR cache capacity (default 1024).
	HIREntries int `json:"hir_entries,omitempty"`
	// SetSizeShift overrides HPE's page-set size as a power of two
	// (default 4 → 16 pages). Requires policy "hpe".
	SetSizeShift uint `json:"set_size_shift,omitempty"`
	// HPEInterval overrides HPE's classification interval in faults
	// (default 64). Requires policy "hpe".
	HPEInterval int `json:"hpe_interval,omitempty"`
	// HPEDivisionThreshold overrides the page-set division counter
	// threshold (0 = the counter cap, the paper's rule). Requires "hpe".
	HPEDivisionThreshold int `json:"hpe_division_threshold,omitempty"`
	// HPEDisableDivision turns off page-set division (§IV-C ablation).
	// Requires policy "hpe".
	HPEDisableDivision bool `json:"hpe_disable_division,omitempty"`
	// SensitivityHPE selects the Figs. 7–8 methodology: dynamic adjustment
	// off, per-app manual strategy, ideal (HIR-free) hit feed. Implies
	// HIR "off". Requires policy "hpe".
	SensitivityHPE bool `json:"sensitivity_hpe,omitempty"`
}

// isZero reports whether t is the paper-default configuration.
func (t Tuning) isZero() bool { return t == Tuning{} }

// Canonicalize returns the spec with aliases resolved, defaults explicit,
// and tuning defaults folded to zero — or an error naming the first invalid
// field. Canonicalization is idempotent, and it is the ONLY place defaults
// are applied: an omitted field and an explicitly-spelled default always
// canonicalize identically, so they share one ID (and one cache entry).
func (s Spec) Canonicalize() (Spec, error) {
	s.App = strings.TrimSpace(s.App)
	s.Phases = strings.TrimSpace(s.Phases)
	s.Tenants = strings.TrimSpace(s.Tenants)
	sources := 0
	for _, src := range []string{s.App, s.Phases, s.Tenants} {
		if src != "" {
			sources++
		}
	}
	switch {
	case sources == 0:
		return Spec{}, fmt.Errorf("runspec: no workload source (app, phases, or tenants)")
	case sources > 1:
		return Spec{}, fmt.Errorf("runspec: app, phases, and tenants are mutually exclusive workload sources")
	case s.Phases != "":
		ps, err := workload.ParsePhases(s.Phases)
		if err != nil {
			return Spec{}, err
		}
		s.Phases = ps.Canonical()
	case s.Tenants != "":
		co, err := workload.ParseTenants(s.Tenants)
		if err != nil {
			return Spec{}, err
		}
		s.Tenants = co.Canonical()
		if s.Interleave == 0 {
			s.Interleave = workload.DefaultInterleave
		}
		if s.Interleave < 1 || s.Interleave > workload.MaxInterleave {
			return Spec{}, fmt.Errorf("runspec: interleave %d out of [1,%d]", s.Interleave, workload.MaxInterleave)
		}
	case strings.HasPrefix(s.App, "trace:"):
		// A captured-trace source: the path after the prefix is the identity,
		// verbatim — no case folding, no catalog lookup.
		if strings.TrimSpace(s.App[len("trace:"):]) == "" {
			return Spec{}, fmt.Errorf("runspec: trace app source needs a path (\"trace:<path>\")")
		}
	default:
		app, ok := workload.ByAbbr(strings.ToUpper(s.App))
		if !ok {
			return Spec{}, fmt.Errorf("runspec: unknown workload %q", s.App)
		}
		s.App = app.Abbr
	}
	if s.Interleave != 0 && s.Tenants == "" {
		return Spec{}, fmt.Errorf("runspec: interleave requires tenants")
	}
	info, ok := registry.Lookup(strings.TrimSpace(s.Policy))
	if !ok {
		return Spec{}, fmt.Errorf("runspec: unknown policy %q", s.Policy)
	}
	s.Policy = info.Name
	if s.Rate <= 0 || s.Rate > 100 {
		return Spec{}, fmt.Errorf("runspec: rate %d out of (0,100]", s.Rate)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	switch strings.ToLower(strings.TrimSpace(s.Design)) {
	case "", "l2tlb":
		s.Design = "l2tlb"
	case "pwc":
		s.Design = "pwc"
	default:
		return Spec{}, fmt.Errorf("runspec: unknown translation design %q (l2tlb or pwc)", s.Design)
	}
	if s.Prefetch < 0 || s.Prefetch > maxPrefetch {
		return Spec{}, fmt.Errorf("runspec: prefetch_pages %d out of [0,%d]", s.Prefetch, maxPrefetch)
	}
	if s.Channels <= 0 {
		s.Channels = 1
	}
	if s.Channels > maxChannels {
		return Spec{}, fmt.Errorf("runspec: channels %d above %d", s.Channels, maxChannels)
	}
	if s.Scale == 0 {
		s.Scale = 1
	}
	if s.Scale < 1 || s.Scale > 64 {
		return Spec{}, fmt.Errorf("runspec: scale %d out of [1,64]", s.Scale)
	}
	if strings.HasPrefix(s.App, "trace:") && s.Scale > 1 {
		return Spec{}, fmt.Errorf("runspec: a replayed trace cannot scale (scale %d)", s.Scale)
	}
	switch strings.ToLower(strings.TrimSpace(s.HIR)) {
	case "", "auto":
		if info.NeedsHIR && !s.Tuning.SensitivityHPE {
			s.HIR = "on"
		} else {
			s.HIR = "off"
		}
	case "on":
		if s.Tuning.SensitivityHPE {
			return Spec{}, fmt.Errorf("runspec: hir \"on\" contradicts sensitivity_hpe (ideal hit feed bypasses the HIR)")
		}
		s.HIR = "on"
	case "off":
		s.HIR = "off"
	default:
		return Spec{}, fmt.Errorf("runspec: hir %q must be on, off, or auto", s.HIR)
	}
	t, err := s.Tuning.canonicalize(s.Policy)
	if err != nil {
		return Spec{}, err
	}
	if t.Prepopulate && s.Rate < 100 {
		return Spec{}, fmt.Errorf("runspec: prepopulate maps the whole footprint, which needs rate 100, not %d", s.Rate)
	}
	s.Tuning = t
	return s, nil
}

// Upper bounds on the knobs. hir_entries and hpe_interval size allocations
// (the HIR entry array, HPE's wrong-eviction FIFOs at 2× the interval);
// walk_latency, transfer_interval and channels scale simulated time or work,
// and an unbounded walk latency overflows the engine clock. Each is 64× the
// paper's value, far above anything the studies sweep. prefetch_pages stops
// at the 15 other pages of the faulting page's 16-page block: a larger value
// would run the same simulation under another ID.
const (
	maxHIREntries       = 64 * hir.DefaultEntries
	maxHPEInterval      = 64 * hpe.DefaultIntervalFaults
	maxWalkLatency      = 64 * gpu.DefaultWalkLatency
	maxTransferInterval = 64 * uvm.DefaultTransferInterval
	maxChannels         = 64
	maxPrefetch         = uvm.PrefetchBlock - 1
)

// canonicalize folds explicit tuning defaults to zero and validates the
// knobs: the bounds the simulator can run, and the policy-scoped ones.
func (t Tuning) canonicalize(policy string) (Tuning, error) {
	if t.WalkLatency < 0 || t.TransferInterval < 0 || t.HIREntries < 0 ||
		t.HPEInterval < 0 || t.HPEDivisionThreshold < 0 {
		return Tuning{}, fmt.Errorf("runspec: tuning values must be non-negative: %+v", t)
	}
	// Explicit paper defaults fold back to the zero value, so "the default,
	// spelled out" and "the default, omitted" share one canonical form.
	if t.WalkLatency == gpu.DefaultWalkLatency {
		t.WalkLatency = 0
	}
	if t.TransferInterval == uvm.DefaultTransferInterval {
		t.TransferInterval = 0
	}
	if t.HIREntries == hir.DefaultEntries {
		t.HIREntries = 0
	}
	if t.SetSizeShift == addrspace.DefaultSetShift {
		t.SetSizeShift = 0
	}
	if t.HPEInterval == hpe.DefaultIntervalFaults {
		t.HPEInterval = 0
	}
	if t.HIREntries != 0 && (t.HIREntries%hir.Ways != 0 || t.HIREntries > maxHIREntries) {
		return Tuning{}, fmt.Errorf("runspec: hir_entries %d must be a multiple of %d in [%d,%d]",
			t.HIREntries, hir.Ways, hir.Ways, maxHIREntries)
	}
	if t.WalkLatency > maxWalkLatency {
		return Tuning{}, fmt.Errorf("runspec: walk_latency %d above %d", t.WalkLatency, maxWalkLatency)
	}
	if t.TransferInterval > maxTransferInterval {
		return Tuning{}, fmt.Errorf("runspec: transfer_interval %d above %d", t.TransferInterval, maxTransferInterval)
	}
	if t.HPEInterval > maxHPEInterval {
		return Tuning{}, fmt.Errorf("runspec: hpe_interval %d above %d", t.HPEInterval, maxHPEInterval)
	}
	// HPE keeps a set's per-page bits in 32-bit masks: at most 32 pages, a
	// shift of 5. The division threshold is a counter value, at most the
	// counter cap of 4× the set size.
	if t.SetSizeShift > 5 {
		return Tuning{}, fmt.Errorf("runspec: set_size_shift %d above 5 (32-page sets)", t.SetSizeShift)
	}
	setSize := addrspace.DefaultSetSize
	if t.SetSizeShift != 0 {
		setSize = 1 << t.SetSizeShift
	}
	if t.HPEDivisionThreshold > 4*setSize {
		return Tuning{}, fmt.Errorf("runspec: hpe_division_threshold %d above the counter cap %d",
			t.HPEDivisionThreshold, 4*setSize)
	}
	if policy != "hpe" {
		if t.SetSizeShift != 0 || t.HPEInterval != 0 || t.HPEDivisionThreshold != 0 ||
			t.HPEDisableDivision || t.SensitivityHPE {
			return Tuning{}, fmt.Errorf("runspec: HPE tuning fields require policy \"hpe\", not %q", policy)
		}
	}
	return t, nil
}

// CanonicalJSON returns the deterministic canonical encoding: the
// canonicalized spec marshaled with fixed field order and zero-value tuning
// omitted. Two specs meaning the same run always render identical bytes.
func (s Spec) CanonicalJSON() ([]byte, error) {
	c, err := s.Canonicalize()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("runspec: canonical spec not marshalable: %w", err)
	}
	return b, nil
}

// ID returns the content address of the run: "run-v2-" plus the first 16
// bytes of the SHA-256 of the canonical JSON, hex-encoded. Identical runs —
// across processes, replicas, and releases sharing this schema — share one
// ID. ID panics on a spec that fails Canonicalize; validate first when the
// spec came from untrusted input (Decode does).
func (s Spec) ID() string {
	b, err := s.CanonicalJSON()
	if err != nil {
		panic(err.Error())
	}
	sum := sha256.Sum256(b)
	return "run-" + IDVersion + "-" + hex.EncodeToString(sum[:16])
}

// Decode reads one JSON-encoded Spec from r — unknown fields rejected, so a
// typoed knob cannot silently alias two different runs onto one ID — and
// returns its canonical form.
func Decode(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("decode run spec: %w", err)
	}
	return s.Canonicalize()
}

// VariantLabel renders the spec's deviations from the plain (app, policy,
// rate) run as a compact dash-joined token list ("walk20", "prepop-pwc"),
// or "" for a default-configured run. It is display vocabulary — progress
// lines, file names — never an identity: the ID is the identity.
func (s Spec) VariantLabel() string {
	c, err := s.Canonicalize()
	if err != nil {
		return "invalid"
	}
	var parts []string
	add := func(tok string) { parts = append(parts, tok) }
	if c.Tuning.Prepopulate {
		add("prepop")
	}
	if c.Design == "pwc" {
		add("pwc")
	}
	if c.DataPath {
		add("datapath")
	}
	if c.Prefetch > 0 {
		add(fmt.Sprintf("pf%d", c.Prefetch))
	}
	if c.Channels > 1 {
		add(fmt.Sprintf("ch%d", c.Channels))
	}
	if c.Scale > 1 {
		add(fmt.Sprintf("x%d", c.Scale))
	}
	if c.MaxCycles > 0 {
		add(fmt.Sprintf("max%d", c.MaxCycles))
	}
	if c.Interleave != 0 && c.Interleave != workload.DefaultInterleave {
		add(fmt.Sprintf("iv%d", c.Interleave))
	}
	if c.HIR == "off" && registry.NeedsHIR(c.Policy) && !c.Tuning.SensitivityHPE {
		add("nohir")
	}
	if c.HIR == "on" && !registry.NeedsHIR(c.Policy) {
		add("hir")
	}
	if c.Tuning.WalkLatency != 0 {
		add(fmt.Sprintf("walk%d", c.Tuning.WalkLatency))
	}
	if c.Tuning.TransferInterval != 0 {
		add(fmt.Sprintf("transfer%d", c.Tuning.TransferInterval))
	}
	if c.Tuning.HIREntries != 0 {
		add(fmt.Sprintf("hir%d", c.Tuning.HIREntries))
	}
	if c.Tuning.SensitivityHPE {
		add("sens")
	}
	if c.Tuning.SetSizeShift != 0 {
		add(fmt.Sprintf("setsize%d", 1<<c.Tuning.SetSizeShift))
	}
	if c.Tuning.HPEInterval != 0 {
		add(fmt.Sprintf("interval%d", c.Tuning.HPEInterval))
	}
	if c.Tuning.HPEDivisionThreshold != 0 {
		add(fmt.Sprintf("div%d", c.Tuning.HPEDivisionThreshold))
	}
	if c.Tuning.HPEDisableDivision {
		add("divoff")
	}
	return strings.Join(parts, "-")
}

// Slug renders a filesystem-safe run name: App_policy_rate plus the variant
// label when the run deviates from the defaults.
func (s Spec) Slug() string {
	c, err := s.Canonicalize()
	if err != nil {
		return "invalid-spec"
	}
	src := c.App
	switch {
	case c.Phases != "":
		src = "phases-" + c.Phases
	case c.Tenants != "":
		src = "tenants-" + c.Tenants
	}
	label := fmt.Sprintf("%s_%s_%d", src, c.Policy, c.Rate)
	if v := c.VariantLabel(); v != "" {
		label += "_" + v
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.':
			return r
		default:
			return '-'
		}
	}, label)
}
