// Workload v2: the scenario families beyond the paper's stationary
// single-app generators (DESIGN.md §14). Three compositions of the Table II
// catalog are supported, each surfacing as a synthesized App so every layer
// that speaks (App, Trace) — the suite, hped, the coordinator, the CLIs —
// runs scenarios without knowing they exist:
//
//   - Phase schedules: the pattern, footprint, and compute gap switch at
//     declared boundaries (diurnal growth, burst arrivals, shrink-regrow).
//     Phases overlap one address region, so a shrinking phase re-touches the
//     pages its predecessor grew.
//   - Colocation: two or more tenants with disjoint address ranges are
//     interleaved in fixed reference quanta, contending for one device
//     memory and one eviction policy.
//   - Trace replay: a reference string captured in a .hpet file (FromTrace,
//     used by the runspec "trace:<path>" app source).
//
// All randomness is seeded from the scenario's canonical string through
// genSeed, as catalog apps are: the same spec generates the same trace on
// every host.
package workload

import (
	"fmt"
	"strconv"
	"strings"

	"hpe/internal/addrspace"
	"hpe/internal/trace"
)

// Scenario grammar limits. Parse errors, not panics: scenario strings arrive
// from CLI flags and wire specs.
const (
	maxPhases      = 32
	maxPhaseSets   = 8192
	maxPhaseGap    = 4096
	maxPhaseRepeat = 64
	maxTenants     = 4
	maxTenantScale = 64
	minTenants     = 2
)

// MaxInterleave bounds the colocation scheduling quantum a spec may request.
const MaxInterleave = 1 << 20

// DefaultInterleave is the per-tenant scheduling quantum, in references,
// applied when a colocated spec leaves the interleave unset.
const DefaultInterleave = 1024

// Phase is one entry of a PhaseSchedule: run App's generator over Sets page
// sets (default geometry) with compute gap Gap, Repeat times in a row.
type Phase struct {
	App    App
	Sets   int
	Gap    int
	Repeat int
}

// PhaseSchedule is a deterministic, seedable temporal workload: a sequence
// of phases generated over one shared address region. Build one with
// ParsePhases; the zero value is invalid.
type PhaseSchedule struct {
	phases []Phase
	canon  string
}

// ParsePhases parses a comma-separated phase-schedule string. Each token is
//
//	ABBR[:SETS[:GAP]][xREPEAT]
//
// where ABBR names a catalog application supplying the phase's access
// pattern, SETS overrides its footprint in page sets, GAP overrides its
// compute gap, and xREPEAT runs the phase's generator that many consecutive
// times ("HOT:32,HSD:96,HOT:32" or "STNx2,STN:16x2"). Omitted fields default
// to the catalog values and fold away in the canonical form, so an explicit
// default and an omitted one canonicalize — and content-address — the same.
func ParsePhases(s string) (PhaseSchedule, error) {
	toks := strings.Split(s, ",")
	if len(toks) > maxPhases {
		return PhaseSchedule{}, fmt.Errorf("workload: %d phases exceed the %d-phase limit", len(toks), maxPhases)
	}
	var ps PhaseSchedule
	var canon []string
	for _, tok := range toks {
		p, err := parsePhaseToken(strings.TrimSpace(tok))
		if err != nil {
			return PhaseSchedule{}, err
		}
		ps.phases = append(ps.phases, p)
		canon = append(canon, phaseToken(p))
	}
	if len(ps.phases) == 0 {
		return PhaseSchedule{}, fmt.Errorf("workload: empty phase schedule")
	}
	ps.canon = strings.Join(canon, ",")
	return ps, nil
}

// parsePhaseToken parses one ABBR[:SETS[:GAP]][xREPEAT] token.
func parsePhaseToken(tok string) (Phase, error) {
	if tok == "" {
		return Phase{}, fmt.Errorf("workload: empty phase token")
	}
	repeat := 1
	// Catalog abbreviations are upper-case, so a lower-case x introduces the
	// repeat suffix unambiguously (B+T, 2DC never contain one).
	if i := strings.LastIndexByte(tok, 'x'); i >= 0 {
		n, err := strconv.Atoi(tok[i+1:])
		if err != nil || n < 1 || n > maxPhaseRepeat {
			return Phase{}, fmt.Errorf("workload: phase %q: repeat must be an integer in [1,%d]", tok, maxPhaseRepeat)
		}
		repeat = n
		tok = tok[:i]
	}
	parts := strings.Split(tok, ":")
	if len(parts) > 3 {
		return Phase{}, fmt.Errorf("workload: phase %q: want ABBR[:SETS[:GAP]]", tok)
	}
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	app, ok := ByAbbr(strings.ToUpper(parts[0]))
	if !ok {
		return Phase{}, fmt.Errorf("workload: phase %q: unknown application %q", tok, parts[0])
	}
	p := Phase{App: app, Sets: app.Sets, Gap: app.ComputeGap, Repeat: repeat}
	if len(parts) >= 2 {
		n, err := strconv.Atoi(parts[1])
		if err != nil || n < 1 || n > maxPhaseSets {
			return Phase{}, fmt.Errorf("workload: phase %q: sets must be an integer in [1,%d]", tok, maxPhaseSets)
		}
		if floor := phaseFloor(app); n < floor {
			return Phase{}, fmt.Errorf("workload: phase %q: %s needs at least %d sets", tok, app.Abbr, floor)
		}
		p.Sets = n
	}
	if len(parts) == 3 {
		n, err := strconv.Atoi(parts[2])
		if err != nil || n < 0 || n > maxPhaseGap {
			return Phase{}, fmt.Errorf("workload: phase %q: gap must be an integer in [0,%d]", tok, maxPhaseGap)
		}
		p.Gap = n
	}
	return p, nil
}

// phaseToken renders a phase in canonical form: catalog defaults omitted,
// x1 folded away.
func phaseToken(p Phase) string {
	tok := p.App.Abbr
	switch {
	case p.Gap != p.App.ComputeGap:
		tok = fmt.Sprintf("%s:%d:%d", p.App.Abbr, p.Sets, p.Gap)
	case p.Sets != p.App.Sets:
		tok = fmt.Sprintf("%s:%d", p.App.Abbr, p.Sets)
	}
	if p.Repeat > 1 {
		tok += "x" + strconv.Itoa(p.Repeat)
	}
	return tok
}

// Canonical returns the schedule's canonical string form — the value the
// runspec "phases" field carries after canonicalization.
func (s PhaseSchedule) Canonical() string { return s.canon }

// Phases returns the parsed phase entries.
func (s PhaseSchedule) Phases() []Phase { return s.phases }

// maxSets returns the schedule's nominal footprint: phases share one address
// region, so the footprint is the largest phase's, not the sum.
func (s PhaseSchedule) maxSets() int {
	m := 1
	for _, p := range s.phases {
		if p.Sets > m {
			m = p.Sets
		}
	}
	return m
}

// scenarioSeed derives a deterministic per-component seed from a scenario's
// canonical string.
func scenarioSeed(canon string, idx int) int64 {
	return genSeed(canon, "#"+strconv.Itoa(idx))
}

// phaseFloor returns the smallest footprint, in sets, the app's generator
// supports. Catalog generators embed fixed-size structures — BFS's CSR hot
// region, B+T's header sets, NW's input stream — that need room no matter how
// far a phase shrinks the footprint, so ParsePhases rejects smaller requests.
// Every catalog app's own Sets clears its floor, and scaling only grows it.
func phaseFloor(a App) int {
	switch a.Abbr {
	case "BFS":
		return 97 // FrontierWithThrash: the 96-set hot region must leave frontier room
	case "NW":
		return 132 // genNW: the 128-set input stream must leave matrix room
	case "B+T", "HYB":
		return 25 // RegionMovingHot: the 24-set header must leave body room
	}
	return 1
}

// write emits the phase into b: Repeat runs of its app's generator over
// Sets×factor sets, each run ending in a kernel barrier.
func (p Phase) write(b *Builder, factor int) {
	for r := 0; r < p.Repeat; r++ {
		p.App.gen(b, p.Sets*factor)
		b.Barrier()
	}
}

// write emits the schedule into b: the phases in order over the shared
// region, kernel barriers preserved (plus one at each phase boundary), and
// one trace segment per non-empty phase carrying its compute gap. b reseeds
// at every phase, so each phase draws from its own RNG stream and its
// references do not depend on what ran before it (the FuzzPhaseSchedule sum
// oracle).
func (s PhaseSchedule) write(b *Builder, factor int) {
	for i, p := range s.phases {
		start := b.Len()
		b.reseed(scenarioSeed(s.canon, i))
		p.write(b, factor)
		if b.Len() > start {
			b.segment(start, i, p.Gap)
		}
	}
}

// App wraps the schedule as a synthesized application: Generate produces the
// phase-annotated trace, Scaled multiplies every phase footprint, and the
// suite/server trace caches key on the canonical Abbr. Scenario apps are not
// part of Catalog(); they exist only through their specs.
func (s PhaseSchedule) App() App {
	nominal := s.maxSets()
	return App{
		Name:       "phases(" + s.canon + ")",
		Abbr:       "phases:" + s.canon,
		Suite:      "scenario",
		Pattern:    PatternTemporal,
		Sets:       nominal,
		ComputeGap: s.phases[0].Gap,
		gen:        func(b *Builder, sets int) { s.write(b, max(1, sets/nominal)) },
	}
}

// ---- multi-tenant colocation ----------------------------------------------

// Tenant is one co-located application with a footprint multiplier.
type Tenant struct {
	App   App
	Scale int
}

// Colocation composes two or more tenants over disjoint address ranges.
// Build one with ParseTenants; the zero value is invalid.
type Colocation struct {
	tenants []Tenant
	canon   string
}

// ParseTenants parses a comma-separated tenant list. Each token is
//
//	ABBR[xSCALE]
//
// naming a catalog application and an optional footprint multiplier
// ("HSD,BFS", "HOT,NWx2"). Two to four tenants.
func ParseTenants(s string) (Colocation, error) {
	toks := strings.Split(s, ",")
	if len(toks) < minTenants || len(toks) > maxTenants {
		return Colocation{}, fmt.Errorf("workload: %d tenants outside [%d,%d]", len(toks), minTenants, maxTenants)
	}
	var c Colocation
	var canon []string
	for _, tok := range toks {
		tok = strings.TrimSpace(tok)
		scale := 1
		if i := strings.LastIndexByte(tok, 'x'); i >= 0 {
			n, err := strconv.Atoi(tok[i+1:])
			if err != nil || n < 1 || n > maxTenantScale {
				return Colocation{}, fmt.Errorf("workload: tenant %q: scale must be an integer in [1,%d]", tok, maxTenantScale)
			}
			scale = n
			tok = tok[:i]
		}
		app, ok := ByAbbr(strings.ToUpper(tok))
		if !ok {
			return Colocation{}, fmt.Errorf("workload: unknown tenant application %q", tok)
		}
		c.tenants = append(c.tenants, Tenant{App: app, Scale: scale})
		canon = append(canon, tenantToken(Tenant{App: app, Scale: scale}))
	}
	c.canon = strings.Join(canon, ",")
	return c, nil
}

// tenantToken renders a tenant in canonical form (x1 folded away).
func tenantToken(t Tenant) string {
	if t.Scale > 1 {
		return t.App.Abbr + "x" + strconv.Itoa(t.Scale)
	}
	return t.App.Abbr
}

// Canonical returns the colocation's canonical string form — the value the
// runspec "tenants" field carries after canonicalization.
func (c Colocation) Canonical() string { return c.canon }

// Tenants returns the parsed tenant entries.
func (c Colocation) Tenants() []Tenant { return c.tenants }

// totalSets is the combined nominal footprint: tenant ranges are disjoint,
// so footprints add.
func (c Colocation) totalSets() int {
	total := 0
	for _, t := range c.tenants {
		total += t.App.Sets * t.Scale
	}
	return total
}

// write interleaves the tenants' reference strings into b in quanta of
// `interleave` references. Each tenant's string is generated independently
// over its own address range; per-tenant kernel barriers are dropped —
// co-located processes do not synchronise with each other — and each quantum
// becomes a trace segment carrying the tenant's compute gap, with the tenant
// page ranges recorded for fault/eviction attribution.
func (c Colocation) write(b *Builder, interleave, factor int) {
	g := addrspace.DefaultGeometry()
	streams := make([]*Builder, len(c.tenants))
	base := baseSet
	remaining := 0
	for i, t := range c.tenants {
		sets := t.App.Sets * t.Scale * factor
		streams[i] = NewBuilder(g, base, scenarioSeed(c.canon, i))
		t.App.gen(streams[i], sets)
		lo := g.FirstPage(base)
		b.tenant(trace.TenantRange{Name: tenantToken(t), Lo: lo, Hi: lo + addrspace.PageID(sets*g.SetSize())})
		base += addrspace.SetID(sets)
		remaining += streams[i].Len()
	}
	pos := make([]int, len(streams))
	lastPhase := -1
	for remaining > 0 {
		for i, st := range streams {
			n := min(interleave, st.Len()-pos[i])
			if n == 0 {
				continue
			}
			if i != lastPhase {
				// Adjacent quanta of the same tenant (everyone else drained)
				// coalesce into one segment.
				b.segment(b.Len(), i, c.tenants[i].App.ComputeGap)
				lastPhase = i
			}
			for end := pos[i] + n; pos[i] < end; pos[i]++ {
				b.Touch(st.at(pos[i]), 1)
			}
			remaining -= n
		}
	}
}

// App wraps the colocation as a synthesized application for the given
// interleave quantum. The quantum is part of the Abbr: it changes the
// reference string, so traces generated under different quanta must never
// share a cache entry.
func (c Colocation) App(interleave int) App {
	if interleave <= 0 {
		interleave = DefaultInterleave
	}
	nominal := c.totalSets()
	return App{
		Name:       "tenants(" + c.canon + ")",
		Abbr:       "tenants:" + c.canon + "@" + strconv.Itoa(interleave),
		Suite:      "scenario",
		Pattern:    PatternColocated,
		Sets:       nominal,
		ComputeGap: c.tenants[0].App.ComputeGap,
		gen:        func(b *Builder, sets int) { c.write(b, interleave, max(1, sets/nominal)) },
	}
}

// ---- trace replay ----------------------------------------------------------

// FromTrace wraps a pre-loaded reference string (typically read from a .hpet
// file) as an App, so captured fault logs materialize and replay through the
// same paths as generated workloads. source is the identity the app carries
// (the runspec uses the file path). Scaling does not apply: the trace is
// what it is.
func FromTrace(source string, tr *trace.Trace) App {
	sets := max(1, (tr.Footprint()+addrspace.DefaultSetSize-1)/addrspace.DefaultSetSize)
	return App{
		Name:    "trace(" + source + ")",
		Abbr:    "trace:" + source,
		Suite:   "scenario",
		Pattern: PatternTrace,
		Sets:    sets,
		// Replayed traces carry no global compute intensity; annotated (v2)
		// traces override this per segment, v1 traces run at the simulator
		// default.
		ComputeGap: 4,
		replay:     tr,
	}
}

// ---- named scenario presets ------------------------------------------------

// Scenario is a named, ready-made workload-v2 preset: the spec fragment to
// merge into a RunSpec. Serve-side, hped lists these on /v1/scenarios.
type Scenario struct {
	// Name is the preset's identifier ("diurnal").
	Name string `json:"name"`
	// Description says what the scenario models.
	Description string `json:"description"`
	// Phases is the spec's "phases" field, when the preset is temporal.
	Phases string `json:"phases,omitempty"`
	// Tenants is the spec's "tenants" field, when the preset is colocated.
	Tenants string `json:"tenants,omitempty"`
	// Interleave is the spec's "interleave" field for colocated presets.
	Interleave int `json:"interleave,omitempty"`
}

// Scenarios returns the named workload-v2 presets, in catalog order.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "diurnal", Description: "footprint grows to a midday peak, then shrinks back over the same pages",
			Phases: "HOT:32,HOT:64,HOT:96,HOT,HOT:96,HOT:64,HOT:32"},
		{Name: "burst", Description: "steady part-repetitive baseline interrupted by a thrashing burst arrival",
			Phases: "PAT:48,HSD:96,PAT:48"},
		{Name: "regrow", Description: "footprint shrinks sharply, then regrows — eviction state must survive the trough",
			Phases: "STNx2,STN:16x2,STNx2"},
		{Name: "colo-mix", Description: "thrashing and frontier tenants contending for one device memory",
			Tenants: "HSD,BFS", Interleave: DefaultInterleave},
		{Name: "colo-stream", Description: "streaming tenant beside a phase-repetitive tenant",
			Tenants: "HOT,NW", Interleave: DefaultInterleave},
	}
}

// ScenarioByName returns the named preset.
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
