package experiments

import (
	"fmt"
	"slices"

	"hpe/internal/gpu"
	"hpe/internal/runspec"
	"hpe/internal/workload"
)

// experiment is one entry of the suite's table. plan lists every cell render
// reads (nil for none); render builds the report from those cells' results
// alone, through a view.
type experiment struct {
	id        string
	plan      func(*Suite) []runspec.Spec
	render    func(*Suite, view) Report
	hostTimed []string // metric keys that time the host, not the model
}

// table lists every experiment once, in report order: the paper's own
// tables and figures in paper order, then the studies beyond the paper.
var table = []experiment{
	{id: "table1", render: table1},
	{id: "table2", render: table2},
	{"fig3", cells([]string{"ideal", "lru", "rrip"}, at75), fig3, nil},
	{"fig7", cells(hpeOnly, at75, fig7Variants...), fig7, nil},
	{"fig8", cells(hpeOnly, at75, fig8Variants...), fig8, nil},
	{"fig9", cells(hpeOnly, at75), fig9, nil},
	{"fig10", cells(lruHPE, Rates), fig10, nil},
	{"fig11", cells(lruHPE, Rates), fig11, nil},
	{"fig12", cells(ComparisonPolicies, Rates), fig12, nil},
	{"fig13", cells(hpeOnly, Rates), fig13, nil},
	{"fig14", cells(hpeOnly, Rates), fig14, nil},
	{"fig15", cells(hpeOnly, at75), fig15, nil},
	{"transfer", cells(hpeOnly, at75, each(transferIntervals, transferEvery)...), transfer, nil},
	{"walklat", cells(lruHPE, at75, nil, walk20), walklat, nil},
	{"overhead", cells(overheadPolicies, Rates), overhead, []string{"classifyUS", "updateUS"}},
	{"ext", cells(append([]string{"ideal"}, extendedPolicies...), at75), ext, nil},
	{"sweep", func(s *Suite) []runspec.Spec {
		return append(cells(lruOnly, at100)(s), cells(sweepPolicies, SweepRates)(s)...)
	}, sweep, nil},
	{"division", func(s *Suite) []runspec.Spec {
		return s.cross(divisionApps(s), hpeOnly, Rates, divisionVariants...)
	}, division, nil},
	{"channels", cells(lruHPE, at75, each(channelCounts, withChannels)...), channels, nil},
	{"translation", cells(lruOnly, at100, prepopulated, pwcDesign), translation, nil},
	{"prefetch", cells(lruHPE, at75, each(prefetchDepths, withPrefetch)...), prefetch, nil},
	{"datapath", cells(lruOnly, at100, prepopulated, dataPath), datapath, nil},
	{"hirsize", cells(hpeOnly, at75, each(hirSizes, hirEntries)...), hirsize, nil},
	{"temporal", temporalPlan, temporal, nil},
	{"colocation", colocationPlan, colocation, nil},
}

// The plan dimensions the table and the renders share.
var (
	at75, at100       = []int{75}, []int{100}
	hpeOnly, lruOnly  = []string{"hpe"}, []string{"lru"}
	lruHPE            = []string{"lru", "hpe"}
	overheadPolicies  = []string{"lru", "rrip", "clockpro", "hpe"}
	sweepPolicies     = []string{"lru", "hpe", "ideal"}
	transferIntervals = []int{1, 8, 16, 32, 64} // HIR drain every n faults
	channelCounts     = []int{1, 2, 4, 8}       // driver fault-service channels
	prefetchDepths    = []int{0, 3, 7, 15}      // pages prefetched per fault
	hirSizes          = []int{128, 256, 512, 1024}

	// Figs. 7–8: page-set sizes 8/16/32 (shifts 3/4/5) at interval 64, and
	// intervals 32/64/128 at size 16.
	fig7Variants = []tweak{sensitivity(3, 64), sensitivity(4, 64), sensitivity(5, 64)}
	fig8Variants = []tweak{sensitivity(4, 32), sensitivity(4, 64), sensitivity(4, 128)}
	// The division study's columns: the check at the counter cap (the
	// default, threshold 0), at 48 and at 32, and no division at all.
	divisionVariants = []tweak{nil, divideAt(48), divideAt(32), tuned(runspec.Tuning{HPEDisableDivision: true})}
)

// tweak customises a cell's spec: a variant's deviation from the plain
// (app, policy, rate) run. Plan and render share each tweak, so every
// variant cell is spelled once. Canonicalization folds a knob at its
// default away (a 16-fault transfer interval, one channel, no prefetch,
// 1024 HIR entries, division at the counter cap), so that variant is the
// plain cell itself.
type tweak func(*runspec.Spec)

func tuned(t runspec.Tuning) tweak  { return func(sp *runspec.Spec) { sp.Tuning = t } }
func transferEvery(n int) tweak     { return tuned(runspec.Tuning{TransferInterval: n}) }
func divideAt(threshold int) tweak  { return tuned(runspec.Tuning{HPEDivisionThreshold: threshold}) }
func hirEntries(n int) tweak        { return tuned(runspec.Tuning{HIREntries: n}) }
func withChannels(n int) tweak      { return func(sp *runspec.Spec) { sp.Channels = n } }
func withPrefetch(pages int) tweak  { return func(sp *runspec.Spec) { sp.Prefetch = pages } }
func walk20(sp *runspec.Spec)       { sp.Tuning = runspec.Tuning{WalkLatency: 20} }
func prepopulated(sp *runspec.Spec) { sp.Tuning = runspec.Tuning{Prepopulate: true} }
func pwcDesign(sp *runspec.Spec)    { prepopulated(sp); sp.Design = "pwc" }
func dataPath(sp *runspec.Spec)     { prepopulated(sp); sp.DataPath = true }

// sensitivity is the Figs. 7–8 HPE variant: dynamic adjustment off, manual
// per-app strategy, ideal (HIR-free) hit feed, at one page-set size shift
// and interval. The Fig. 7 size-16 cell and the Fig. 8 interval-64 cell
// are one ID and share one simulation.
func sensitivity(shift uint, interval int) tweak {
	return tuned(runspec.Tuning{SensitivityHPE: true, SetSizeShift: shift, HPEInterval: interval})
}

// each maps a variant dimension's values to their tweaks.
func each[T any](vals []T, f func(T) tweak) []tweak {
	out := make([]tweak, len(vals))
	for i, v := range vals {
		out[i] = f(v)
	}
	return out
}

// spec builds the suite's spec for one (app, policy, rate) cell, with each
// non-nil tweak applied in turn. The suite's policy seed is Options.Seed+1
// (the historical suite seeding; the golden results.json pins it).
func (s *Suite) spec(app workload.App, policy string, ratePct int, tw ...tweak) runspec.Spec {
	sp := runspec.Spec{App: app.Abbr, Policy: policy, Rate: ratePct, Seed: s.opts.Seed + 1}
	for _, t := range tw {
		if t != nil {
			t(&sp)
		}
	}
	return sp
}

// cross plans apps × policies × rates × variants, in that nesting order. No
// variants means the plain cells; a nil variant is the plain cell too.
func (s *Suite) cross(apps []workload.App, policies []string, rates []int, variants ...tweak) []runspec.Spec {
	if len(variants) == 0 {
		variants = []tweak{nil}
	}
	var out []runspec.Spec
	for _, app := range apps {
		for _, pol := range policies {
			for _, rate := range rates {
				for _, v := range variants {
					out = append(out, s.spec(app, pol, rate, v))
				}
			}
		}
	}
	return out
}

// cells plans the suite's apps × policies × rates × variants (see cross).
func cells(policies []string, rates []int, variants ...tweak) func(*Suite) []runspec.Spec {
	return func(s *Suite) []runspec.Spec { return s.cross(s.apps, policies, rates, variants...) }
}

// canonical returns sp's canonical form and content address. Experiment
// code builds its specs from the catalog, so an invalid spec is a
// programming error, not input.
func canonical(sp runspec.Spec) (runspec.Spec, string) {
	c, err := sp.Canonicalize()
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return c, c.ID()
}

// view is what a render reads: the results of the cells its plan listed.
// Reading a cell outside the plan panics — the plan is incomplete, and
// render never simulates to paper over it.
type view struct {
	s     *Suite
	cells map[string]gpu.Result // by Spec.ID()
}

// Run returns the (app, policy, rate) cell, with each tweak applied in turn.
func (r view) Run(app workload.App, policy string, ratePct int, tw ...tweak) gpu.Result {
	return r.Spec(r.s.spec(app, policy, ratePct, tw...))
}

// Spec returns the cell of an arbitrary spec, found by its content address:
// two specs meaning the same run — however they were spelled — are one cell.
func (r view) Spec(sp runspec.Spec) gpu.Result {
	c, id := canonical(sp)
	res, ok := r.cells[id]
	if !ok {
		panic(fmt.Sprintf("experiments: render read unplanned cell %s (%s)", c.Slug(), id))
	}
	return res
}

// lookup resolves an experiment ID.
func lookup(id string) (experiment, bool) {
	for _, e := range table {
		if e.id == id {
			return e, true
		}
	}
	return experiment{}, false
}

// HostTimed reports whether metric key of experiment id times the host
// rather than the model (the table entry's hostTimed keys): the overhead
// experiment's measured classification and chain-update microseconds. They
// vary from run to run, yet results.json and /v1/suite bodies carry them,
// so golden and determinism comparisons skip exactly these keys.
func HostTimed(id, key string) bool {
	e, _ := lookup(id)
	return slices.Contains(e.hostTimed, key)
}

// Deterministic reports whether experiment id's report is a pure function of
// its request: no metric of it is HostTimed. Only such reports may be stored
// under a content address.
func Deterministic(id string) bool {
	e, _ := lookup(id)
	return len(e.hostTimed) == 0
}

// IDs lists all experiment identifiers: the paper's set in paper order,
// then the extensions.
func IDs() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.id
	}
	return out
}
