package workload

import "fmt"

// PatternType enumerates the six representative GPU access patterns of
// Fig. 2 in the paper.
type PatternType int

const (
	// PatternStreaming is Type I: (a1, a2, ..., ak), one pass, k unbounded.
	PatternStreaming PatternType = iota + 1
	// PatternThrashing is Type II: (a1, ..., ak)^N with k > memory size, N ≥ 2.
	PatternThrashing
	// PatternPartRepetitive is Type III: parts of the pages are referenced
	// multiple times with some probability.
	PatternPartRepetitive
	// PatternMostRepetitive is Type IV: most pages are referenced multiple
	// times, with intersecting reference order.
	PatternMostRepetitive
	// PatternRepetitiveThrashing is Type V: a Type IV sequence repeated N
	// times over a footprint exceeding memory.
	PatternRepetitiveThrashing
	// PatternRegionMoving is Type VI: the footprint is split into address
	// regions; each region is hot for a duration, then the app moves on.
	PatternRegionMoving

	// The workload-v2 scenario families sit outside the paper's Fig. 2
	// taxonomy: their reference strings are compositions of the six base
	// patterns rather than new per-kernel shapes (DESIGN.md §14).

	// PatternTemporal is a phase-schedule workload: the pattern, footprint,
	// and compute gap switch at declared phase boundaries.
	PatternTemporal
	// PatternColocated interleaves two or more tenants with disjoint address
	// ranges contending for one device memory.
	PatternColocated
	// PatternTrace replays a reference string captured in a .hpet file.
	PatternTrace
)

// String returns the paper's Roman-numeral name for the pattern.
func (p PatternType) String() string {
	switch p {
	case PatternStreaming:
		return "Type I"
	case PatternThrashing:
		return "Type II"
	case PatternPartRepetitive:
		return "Type III"
	case PatternMostRepetitive:
		return "Type IV"
	case PatternRepetitiveThrashing:
		return "Type V"
	case PatternRegionMoving:
		return "Type VI"
	case PatternTemporal:
		return "Temporal"
	case PatternColocated:
		return "Colocated"
	case PatternTrace:
		return "Trace"
	default:
		return fmt.Sprintf("PatternType(%d)", int(p))
	}
}

// Streaming emits Type I: one kernel streaming over `sets` page sets, each
// page touched once (dups adjacent duplicates model the intra-page burst).
func Streaming(b *Builder, sets, dups int) {
	b.Sweep(0, sets, dups)
}

// Thrashing emits Type II: `passes` complete sweeps over `sets` page sets,
// one kernel per pass. With footprint > memory this defeats LRU totally: by
// the time a sweep wraps, the head of the footprint has been evicted.
func Thrashing(b *Builder, sets, passes, dups int) {
	for p := 0; p < passes; p++ {
		b.Sweep(0, sets, dups)
		b.Barrier()
	}
}

// PartRepetitive emits Type III: a forward stream over `sets` page sets
// where each set is, with probability revisitProb, revisited once more after
// delaySets further sets have streamed past. Revisits are whole-set (all
// pages once), keeping set counters regular — multiples of the set size —
// as the paper observes for Type III applications. Pick delaySets beyond the
// L2 TLB reach (32 sets under the Table I configuration) if the revisits
// should be visible to the page walker.
func PartRepetitive(b *Builder, sets int, revisitProb float64, delaySets, dups int) {
	type pending struct {
		set int
		due int
	}
	var queue []pending
	for i := 0; i < sets; i++ {
		b.TouchSet(i, dups)
		for len(queue) > 0 && queue[0].due <= i {
			b.TouchSet(queue[0].set, dups)
			queue = queue[1:]
		}
		if b.rng.Float64() < revisitProb {
			queue = append(queue, pending{set: i, due: i + delaySets})
		}
	}
	for _, q := range queue {
		b.TouchSet(q.set, dups)
	}
}

// PartRepetitiveIrregular emits the KMN/SAD variant of Type III: revisits
// touch only a random subset of each set's pages, so set counters end up
// indivisible by the set size (the large-ratio₁ outliers of Fig. 9).
func PartRepetitiveIrregular(b *Builder, sets int, revisitProb float64, delaySets, dups int) {
	type pending struct {
		set int
		due int
	}
	var queue []pending
	for i := 0; i < sets; i++ {
		b.TouchSet(i, dups)
		for len(queue) > 0 && queue[0].due <= i {
			// Revisit a random, non-empty, strict subset of pages.
			b.TouchSubset(queue[0].set, 1+b.rng.Intn(b.g.SetSize()-1), dups)
			queue = queue[1:]
		}
		if b.rng.Float64() < revisitProb {
			queue = append(queue, pending{set: i, due: i + delaySets})
		}
	}
}

// MostRepetitive emits Type IV: a window of `windowSets` sets slides over the
// footprint; sets inside the window are revisited in shuffled rounds, so
// references to different sets intersect. One kernel per revisit round.
func MostRepetitive(b *Builder, sets, windowSets, visits, dups int) {
	if windowSets < 1 {
		windowSets = 1
	}
	window := make([]int, 0, windowSets)
	admit := func(s int) {
		window = append(window, s)
		if len(window) > windowSets {
			window = window[1:]
		}
	}
	rounds := max(1, visits-1)
	for s := 0; s < sets; s++ {
		b.TouchSet(s, dups) // first touch: the whole set faults in
		admit(s)
		if (s+1)%max(1, windowSets/rounds) == 0 {
			b.Barrier()
			for _, idx := range b.Shuffled(len(window)) {
				b.TouchSet(window[idx], dups)
			}
			b.Barrier()
		}
	}
}

// RepetitiveThrashing emits Type V: `passes` kernels sweeping the footprint,
// where within each pass set s receives visitsFor(s) back-to-back visit
// rounds — combining cyclic reuse (Type II) with per-set repetition
// (Type IV).
func RepetitiveThrashing(b *Builder, sets, passes int, visitsFor func(set int) int, dups int) {
	for p := 0; p < passes; p++ {
		for s := 0; s < sets; s++ {
			v := max(1, visitsFor(s))
			for i := 0; i < v; i++ {
				b.TouchSet(s, dups)
			}
		}
		b.Barrier()
	}
}

// RepetitiveThrashingIrregular is the HIS/SPV variant of Type V: each pass
// streams the footprint and, delaySets behind the stream point, revisits a
// random subset of an earlier set's pages. The delayed partial revisits give
// sets irregular counters once they are visible to the walker (delaySets
// beyond the 32-set L2 TLB reach).
func RepetitiveThrashingIrregular(b *Builder, sets, passes, delaySets, dups int) {
	for p := 0; p < passes; p++ {
		for s := 0; s < sets; s++ {
			b.TouchSet(s, dups)
			if back := s - delaySets; back >= 0 {
				b.TouchSubset(back, 1+b.rng.Intn(b.g.SetSize()-1), dups)
			}
		}
		b.Barrier()
	}
}

// RegionMoving emits Type VI: the footprint is divided into `regions` equal
// address regions; each region's sets are visited `visits` rounds (one
// kernel per round, shuffled within the region) before the app moves on.
// Recency perfectly predicts reuse, which is why LRU wins on this type and
// frequency-biased policies (RRIP, CLOCK-Pro) lose. Regions larger than the
// L2 TLB reach (32 sets) make the revisit rounds visible to the walker,
// driving set counters to the large-and-regular band of Fig. 9.
func RegionMoving(b *Builder, sets, regions, visits, dups int) {
	if regions < 1 {
		regions = 1
	}
	per := max(1, sets/regions)
	for r := 0; r < regions; r++ {
		from := r * per
		count := per
		if r == regions-1 {
			count = sets - from
		}
		if count <= 0 {
			break
		}
		for v := 0; v < visits; v++ {
			for _, i := range b.Shuffled(count) {
				b.TouchSet(from+i, dups)
			}
			b.Barrier()
		}
	}
}

// StridedRepetitive models MVT: only pages at the given stride within each
// set are touched (stride 4 → 4 pages per 16-page set), revisited over
// `visits` kernel rounds. This wastes HIR entry space (each entry records
// only SetSize/stride pages) and produces irregular set counters.
func StridedRepetitive(b *Builder, sets, stride, visits, dups int) {
	offsets := b.StrideOffsets(stride)
	for v := 0; v < visits; v++ {
		for s := 0; s < sets; s++ {
			b.TouchSetOffsets(s, offsets, dups)
		}
		b.Barrier()
	}
}

// FrontierWithThrash models BFS: a hot region of `hotSets` sets (the CSR
// arrays and visited bitmap) is swept `initSweeps` times up front, then each
// frontier level touches a fresh slice of sets and re-sweeps everything
// visited so far. The recurring full sweeps are the "thrashing pattern in
// BFS's page walk trace" that makes pure LRU catastrophic (§IV-E), and the
// hot region's accumulated counters give BFS its large-and-regular census.
func FrontierWithThrash(b *Builder, sets, hotSets, levels, initSweeps, dups int) {
	if hotSets < 1 || hotSets >= sets {
		panic(fmt.Sprintf("workload: FrontierWithThrash hotSets %d out of (0,%d)", hotSets, sets))
	}
	if levels < 1 {
		levels = 1
	}
	for i := 0; i < initSweeps; i++ {
		b.Sweep(0, hotSets, dups)
		b.Barrier()
	}
	frontier := sets - hotSets
	per := max(1, frontier/levels)
	covered := hotSets
	for l := 0; l < levels && covered < sets; l++ {
		count := per
		if covered+count > sets {
			count = sets - covered
		}
		for _, i := range b.Shuffled(count) {
			b.TouchSet(covered+i, dups)
		}
		b.Barrier()
		covered += count
		b.Sweep(0, covered, dups)
		b.Barrier()
	}
	b.Sweep(0, sets, dups)
	b.Barrier()
}

// RegionMovingHot is the B+T/HYB variant of Type VI: a hot header region of
// `hotSets` sets (a b+tree's root and internal nodes, a sort's histogram) is
// re-touched on every kernel round while the remaining sets are visited
// region by region. Header sets are only partially populated (12 of 16
// pages — interior-node occupancy), so they carry irregular counters from
// the first round on, which is what pushes these applications into the LRU
// categories the paper observes them using throughout execution.
func RegionMovingHot(b *Builder, sets, hotSets, regions, visits, dups int) {
	if hotSets < 0 || hotSets >= sets {
		panic(fmt.Sprintf("workload: RegionMovingHot hotSets %d out of [0,%d)", hotSets, sets))
	}
	if regions < 1 {
		regions = 1
	}
	body := sets - hotSets
	per := max(1, body/regions)
	for r := 0; r < regions; r++ {
		from := hotSets + r*per
		count := per
		if r == regions-1 {
			count = sets - from
		}
		if count <= 0 {
			break
		}
		for v := 0; v < visits; v++ {
			// Header touches interleave with the region round: every tree
			// descent passes through the internal nodes, so their recency
			// refreshes continuously rather than once per kernel.
			hot := b.Shuffled(hotSets)
			headerPages := b.g.SetSize() * 3 / 4
			h := 0
			for n, i := range b.Shuffled(count) {
				b.TouchSet(from+i, dups)
				// Spread header touches evenly across the round so the
				// header is never much older than the youngest region set.
				for h < len(hot) && h*count <= n*hotSets {
					b.TouchSubset(hot[h], headerPages, dups)
					h++
				}
			}
			for ; h < len(hot); h++ {
				b.TouchSubset(hot[h], headerPages, dups)
			}
			b.Barrier()
		}
	}
}
