package workload

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"hpe/internal/addrspace"
	"hpe/internal/trace"
)

// App describes one Table II application: its identity, pattern type,
// footprint (in page sets), the compute intensity used by the GPU model, and
// the generator that produces its reference string.
type App struct {
	// Name is the full application name as the paper writes it.
	Name string
	// Abbr is the paper's abbreviation (Table II / figures x-axis).
	Abbr string
	// Suite is the benchmark suite: Rodinia, Parboil, or Polybench.
	Suite string
	// Pattern is the Fig. 2 access-pattern type.
	Pattern PatternType
	// Sets is the footprint in page sets (default geometry, 16 pages each).
	Sets int
	// ComputeGap is the number of compute cycles a warp spends between
	// memory accesses — the knob modelling arithmetic intensity.
	ComputeGap int

	// gen writes the reference string for a footprint of sets page sets
	// into b; scenario apps compose their phases or tenants the same way,
	// so Scaled applies to every generated app.
	gen func(b *Builder, sets int)
	// replay, when non-nil, is the pre-loaded trace of a trace-replay app,
	// returned as is in place of generation.
	replay *trace.Trace
}

// Pages returns the nominal footprint in pages.
func (a App) Pages() int { return a.Sets * addrspace.DefaultSetSize }

// FootprintBytes returns the nominal footprint in bytes.
func (a App) FootprintBytes() uint64 {
	return uint64(a.Pages()) * addrspace.PageBytes
}

// String renders the app for reports.
func (a App) String() string {
	return fmt.Sprintf("%s/%s (%s, %s, %d pages)", a.Suite, a.Abbr, a.Name, a.Pattern, a.Pages())
}

// genSeed derives a stable generator seed from identity strings: the fnv64a
// hash of their concatenation. Catalog apps seed from their abbreviation,
// scenario components from their canonical string and index, so the same
// spec generates the same trace on every host.
func genSeed(parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
	}
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// baseSet is where every workload's virtual allocation starts — page set
// 0x8000, echoing the paper's worked example.
const baseSet = addrspace.SetID(0x8000)

// Generate builds the app's canonical reference string.
func (a App) Generate() *trace.Trace {
	if a.replay != nil {
		return a.replay
	}
	b := NewBuilder(addrspace.DefaultGeometry(), baseSet, genSeed(a.Abbr))
	a.gen(b, a.Sets)
	return b.Build(a.Abbr)
}

// Scaled returns a copy of the app with its footprint multiplied by the
// given factor: more page sets driven through the same generator, so the
// access pattern class is preserved while the reference string grows
// roughly linearly. The serving layer exposes this for scale studies
// beyond the paper's Table II geometries. Factors below 2 return the app
// unchanged.
func (a App) Scaled(scale int) App {
	if scale > 1 {
		a.Sets *= scale
	}
	return a
}

// Catalog returns the 23 applications of Table II, in suite/pattern order.
// Footprints are scaled versions of the paper's 3–130 MB range (long
// simulation times forced the authors to cap footprints too); KMN keeps the
// largest footprint, as the paper notes when costing classification. The
// slice is a fresh copy of the catalog built once at package init, so the
// caller owns it.
func Catalog() []App { return slices.Clone(catalog) }

// catalog is built once: every spec canonicalization looks its app up by
// abbreviation, and rebuilding 23 Apps with their generator closures per
// lookup was a sixth of a sweep's set-up CPU.
var catalog = buildCatalog()

func buildCatalog() []App {
	return []App{
		// ---- Type I: streaming --------------------------------------------
		{Name: "hotspot", Abbr: "HOT", Suite: "Rodinia", Pattern: PatternStreaming, Sets: 128, ComputeGap: 4,
			gen: func(b *Builder, sets int) { Streaming(b, sets, 2) }},
		{Name: "leukocyte", Abbr: "LEU", Suite: "Rodinia", Pattern: PatternStreaming, Sets: 96, ComputeGap: 10,
			gen: func(b *Builder, sets int) { Streaming(b, sets, 3) }},
		{Name: "cutcp", Abbr: "CUT", Suite: "Parboil", Pattern: PatternStreaming, Sets: 80, ComputeGap: 6,
			gen: func(b *Builder, sets int) { Streaming(b, sets, 2) }},
		{Name: "2DCONV", Abbr: "2DC", Suite: "Polybench", Pattern: PatternStreaming, Sets: 160, ComputeGap: 2,
			gen: func(b *Builder, sets int) { Streaming(b, sets, 2) }},
		// GEM streams matrix A / writes C while cyclically re-sweeping matrix
		// B; B's reuse distance sits near the 75% memory boundary, which is
		// why Fig. 3 shows LRU performing poorly on GEM alone among Type I.
		{Name: "GEMM", Abbr: "GEM", Suite: "Polybench", Pattern: PatternStreaming, Sets: 112, ComputeGap: 3,
			gen: genGEMM},

		// ---- Type II: thrashing -------------------------------------------
		// SRD is a stencil: each sweep re-touches the previous set (halo
		// rows), giving first-fill counters of 2× set size (still small and
		// regular).
		{Name: "srad_v2", Abbr: "SRD", Suite: "Rodinia", Pattern: PatternThrashing, Sets: 128, ComputeGap: 3,
			gen: genSRAD},
		{Name: "hotspot3D", Abbr: "HSD", Suite: "Rodinia", Pattern: PatternThrashing, Sets: 144, ComputeGap: 2,
			gen: func(b *Builder, sets int) { Thrashing(b, sets, 6, 2) }},
		{Name: "mri-q", Abbr: "MRQ", Suite: "Parboil", Pattern: PatternThrashing, Sets: 96, ComputeGap: 8,
			gen: func(b *Builder, sets int) { Thrashing(b, sets, 4, 3) }},
		{Name: "stencil", Abbr: "STN", Suite: "Parboil", Pattern: PatternThrashing, Sets: 64, ComputeGap: 3,
			gen: func(b *Builder, sets int) { Thrashing(b, sets, 5, 2) }},

		// ---- Type III: part repetitive ------------------------------------
		{Name: "pathfinder", Abbr: "PAT", Suite: "Rodinia", Pattern: PatternPartRepetitive, Sets: 112, ComputeGap: 3,
			gen: func(b *Builder, sets int) { PartRepetitive(b, sets, 0.25, 40, 2) }},
		{Name: "dwt2d", Abbr: "DWT", Suite: "Rodinia", Pattern: PatternPartRepetitive, Sets: 96, ComputeGap: 4,
			gen: func(b *Builder, sets int) { PartRepetitive(b, sets, 0.35, 36, 2) }},
		{Name: "backprop", Abbr: "BKP", Suite: "Rodinia", Pattern: PatternPartRepetitive, Sets: 128, ComputeGap: 3,
			gen: func(b *Builder, sets int) { PartRepetitive(b, sets, 0.30, 48, 2) }},
		// KMN and SAD revisit partial sets: irregular counters, the two
		// ratio₁ outliers of Fig. 9, classified irregular#2.
		{Name: "kmeans", Abbr: "KMN", Suite: "Rodinia", Pattern: PatternPartRepetitive, Sets: 512, ComputeGap: 2,
			gen: func(b *Builder, sets int) { PartRepetitiveIrregular(b, sets, 0.5, 96, 1) }},
		{Name: "sad", Abbr: "SAD", Suite: "Parboil", Pattern: PatternPartRepetitive, Sets: 160, ComputeGap: 2,
			gen: func(b *Builder, sets int) { PartRepetitiveIrregular(b, sets, 0.6, 48, 2) }},

		// ---- Type IV: most repetitive -------------------------------------
		// NW touches even pages then odd pages of each set in separate
		// phases — the motivating case for HPE's page-set division.
		{Name: "nw", Abbr: "NW", Suite: "Rodinia", Pattern: PatternMostRepetitive, Sets: 278, ComputeGap: 2,
			gen: genNW},
		// BFS interleaves frontier expansion with full re-sweeps of the
		// visited region — the embedded thrashing pattern that makes pure
		// LRU catastrophic (§IV-E).
		{Name: "bfs", Abbr: "BFS", Suite: "Rodinia", Pattern: PatternMostRepetitive, Sets: 256, ComputeGap: 1,
			gen: func(b *Builder, sets int) { FrontierWithThrash(b, sets, 96, 10, 3, 1) }},
		// MVT touches pages with an address stride of 4, wasting HIR entry
		// space (only 4 of 16 counters used per entry).
		{Name: "MVT", Abbr: "MVT", Suite: "Polybench", Pattern: PatternMostRepetitive, Sets: 256, ComputeGap: 2,
			gen: func(b *Builder, sets int) { StridedRepetitive(b, sets, 4, 4, 2) }},

		// ---- Type V: repetitive-thrashing ---------------------------------
		{Name: "heartwall", Abbr: "HWL", Suite: "Rodinia", Pattern: PatternRepetitiveThrashing, Sets: 96, ComputeGap: 5,
			gen: func(b *Builder, sets int) {
				RepetitiveThrashing(b, sets, 3, func(s int) int { return 1 + s%3 }, 2)
			}},
		// SGM has uniform per-set visit counts (small ratio₁) and a partly
		// Type-II-like sweep — the Fig. 9 outlier classified regular.
		{Name: "sgemm", Abbr: "SGM", Suite: "Parboil", Pattern: PatternRepetitiveThrashing, Sets: 80, ComputeGap: 4,
			gen: func(b *Builder, sets int) {
				RepetitiveThrashing(b, sets, 3, func(s int) int { return 1 }, 2)
			}},
		{Name: "histo", Abbr: "HIS", Suite: "Parboil", Pattern: PatternRepetitiveThrashing, Sets: 192, ComputeGap: 2,
			gen: func(b *Builder, sets int) { RepetitiveThrashingIrregular(b, sets, 2, 96, 1) }},
		{Name: "spmv", Abbr: "SPV", Suite: "Parboil", Pattern: PatternRepetitiveThrashing, Sets: 160, ComputeGap: 2,
			gen: func(b *Builder, sets int) { RepetitiveThrashingIrregular(b, sets, 2, 96, 1) }},

		// ---- Type VI: region moving ---------------------------------------
		{Name: "b+tree", Abbr: "B+T", Suite: "Rodinia", Pattern: PatternRegionMoving, Sets: 132, ComputeGap: 3,
			gen: func(b *Builder, sets int) { RegionMovingHot(b, sets, 24, 3, 4, 1) }},
		{Name: "hybridsort", Abbr: "HYB", Suite: "Rodinia", Pattern: PatternRegionMoving, Sets: 144, ComputeGap: 2,
			gen: func(b *Builder, sets int) { RegionMovingHot(b, sets, 24, 3, 4, 2) }},
	}
}

// genGEMM builds GEM: 8 row-blocks; each block streams a slice of A and then
// sweeps all of B. B is 80 of the 112 sets, so its cyclic reuse distance
// (~83 sets) exceeds the 50% memory size and brushes the 75% one.
func genGEMM(b *Builder, sets int) {
	bSets := sets * 5 / 7 // matrix B
	aSets := sets - bSets - sets/14
	cSets := sets - bSets - aSets
	blocks := 8
	aPer := max(1, aSets/blocks)
	for blk := 0; blk < blocks; blk++ {
		from := blk * aPer
		if from >= aSets {
			from = aSets - 1
		}
		b.Sweep(from, min(aPer, aSets-from), 2) // stream a slice of A
		b.Sweep(aSets, bSets, 1)                // sweep all of B
		if cSets > 0 {
			b.TouchSet(aSets+bSets+blk%cSets, 2) // write C block
		}
		b.Barrier() // one kernel launch per row-block
	}
}

// genSRAD builds SRD: 4 sweeps; each step touches set i and re-touches the
// stencil halo (set i-1).
func genSRAD(b *Builder, sets int) {
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < sets; i++ {
			b.TouchSet(i, 2)
			if i > 0 {
				b.TouchSet(i-1, 1)
			}
		}
		b.Barrier()
	}
}

// genNW builds NW: a score matrix (88 sets) whose even and odd pages are
// touched on alternating phases (E-O-E-O, six kernel rounds each) — the
// behaviour that motivates HPE's page-set division (§IV-C): an undivided set
// looks hot whenever either half is touched, so its cold half can never age
// out. Each round also streams a fresh batch of partially-touched input sets
// (the sequence arrays), which keeps faults (and therefore HIR drains)
// flowing and gives the chain the irregular census that classifies NW
// irregular#2 (the paper has NW on LRU throughout).
func genNW(b *Builder, sets int) {
	const rounds = 8                 // 8 rounds × 8 even pages drive the counter to the 64 cap within one phase
	matrix := sets - 4*rounds*4      // the rest streams in as input sets
	perRound := 4                    // fresh input sets per round — small, so phase swaps squeeze the matrix
	partial := b.g.SetSize() * 3 / 4 // input sets touch only 12 of 16 pages
	scratchBase := matrix
	phase := func(offsets []int) {
		for v := 0; v < rounds; v++ {
			for s := 0; s < matrix; s++ {
				b.TouchSetOffsets(s, offsets, 1)
				if s%(matrix/max(1, perRound)+1) == 0 && scratchBase < sets {
					b.TouchSubset(scratchBase, partial, 1)
					scratchBase++
				}
			}
			b.Barrier()
		}
	}
	for iter := 0; iter < 2; iter++ {
		phase(b.EvenOffsets())
		phase(b.OddOffsets())
	}
}

// ByAbbr returns the catalog application with the given abbreviation.
func ByAbbr(abbr string) (App, bool) {
	for _, a := range catalog {
		if a.Abbr == abbr {
			return a, true
		}
	}
	return App{}, false
}

// ByPattern returns the catalog applications with the given pattern type,
// preserving catalog order.
func ByPattern(p PatternType) []App {
	var out []App
	for _, a := range catalog {
		if a.Pattern == p {
			out = append(out, a)
		}
	}
	return out
}

// PatternTypes returns the pattern types present in the catalog, ascending.
func PatternTypes() []PatternType {
	seen := map[PatternType]bool{}
	for _, a := range catalog {
		seen[a.Pattern] = true
	}
	var out []PatternType
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
