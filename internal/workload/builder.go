// Package workload generates synthetic page-granularity reference strings
// that reproduce the access-pattern taxonomy of Fig. 2 in the paper and the
// 23 applications of Table II (Rodinia, Parboil, Polybench).
//
// We do not have the CUDA applications or GPGPU-Sim, so each application is
// modeled as a parameterised generator whose reference string exhibits the
// properties the paper attributes to it: its pattern type, its footprint
// scale, its page-set counter statistics (ratio₁/ratio₂, Fig. 9), and its
// documented quirks (NW's even/odd page phases, MVT's stride-4 touches,
// KMN/SAD's irregular counters, SGM's small ratio₁, BFS's embedded thrashing
// phase). The eviction-policy study depends only on these properties of the
// reference string, so preserving them preserves the paper's comparisons.
//
// Every generated trace — a catalog app, a phase schedule or a colocation —
// is assembled by one Builder, and Builder.Build is generation's only call
// into trace.New. Seeds enter generation only through NewBuilder and, for
// the phases of a schedule, the builder's reseed.
package workload

import (
	"math/rand"

	"hpe/internal/addrspace"
	"hpe/internal/trace"
)

// Builder assembles every generated trace: it accumulates a reference
// string set by set, with its kernel barriers, phase segments and tenant
// ranges, and Build hands them to trace.New in one call. All randomness flows
// through the seeded rng so generation is deterministic.
//
// References are stored in fixed-size chunks and copied once, at Build, into
// an exact-length slice: no chunk is ever regrown, so a trace costs about
// twice its reference bytes to build.
type Builder struct {
	g        addrspace.Geometry
	rng      *rand.Rand
	full     [][]addrspace.PageID // filled chunks, chunkRefs references each
	tail     []addrspace.PageID   // the chunk being filled
	barriers []int
	segments []trace.Segment
	tenants  []trace.TenantRange
	base     addrspace.SetID // first set of the current allocation
	subset   []int           // TouchSubset's permutation scratch
}

// chunkRefs is the number of references per storage chunk (16 KiB).
const chunkRefs = 2048

// NewBuilder returns a builder over the given geometry, with the virtual
// address space of the workload starting at baseSet.
func NewBuilder(g addrspace.Geometry, baseSet addrspace.SetID, seed int64) *Builder {
	return &Builder{
		g:    g,
		rng:  rand.New(rand.NewSource(seed)),
		tail: make([]addrspace.PageID, 0, chunkRefs),
		base: baseSet,
	}
}

// reseed restarts the builder's random stream from seed, exactly as a fresh
// builder with that seed would draw it.
func (b *Builder) reseed(seed int64) { b.rng.Seed(seed) }

// Len returns the number of references emitted so far.
func (b *Builder) Len() int { return len(b.full)*chunkRefs + len(b.tail) }

// at returns the i-th reference emitted.
func (b *Builder) at(i int) addrspace.PageID {
	if c := i / chunkRefs; c < len(b.full) {
		return b.full[c][i%chunkRefs]
	}
	return b.tail[i%chunkRefs]
}

// Barrier marks a kernel boundary at the current position: later references
// wait until everything before them completes. Generators place one between
// passes, phases, and rounds — the implicit synchronisation of consecutive
// kernel launches. trace.New drops repeats and boundaries at either end.
func (b *Builder) Barrier() { b.barriers = append(b.barriers, b.Len()) }

// segment marks the references from start on as emitted by the given phase
// (or tenant) at the given compute gap.
func (b *Builder) segment(start, phase, gap int) {
	b.segments = append(b.segments, trace.Segment{Start: start, Phase: phase, Gap: gap})
}

// tenant records a co-located application's page range.
func (b *Builder) tenant(r trace.TenantRange) { b.tenants = append(b.tenants, r) }

// Build packages everything recorded into a named trace. It panics if the
// recorded barriers or annotations break a trace rule: generators produce
// them, so that is a programming error.
func (b *Builder) Build(name string) *trace.Trace {
	refs := make([]addrspace.PageID, b.Len())
	n := 0
	for _, c := range b.full {
		n += copy(refs[n:], c)
	}
	copy(refs[n:], b.tail)
	tr, err := trace.New(name, refs, b.barriers, b.segments, b.tenants)
	if err != nil {
		panic(err)
	}
	return tr
}

// set translates a workload-local set index to a global SetID.
func (b *Builder) set(idx int) addrspace.SetID {
	return b.base + addrspace.SetID(idx)
}

// Touch appends dups consecutive references to one page. Adjacent duplicates
// model intra-page burst accesses; the TLB and walk-coalescing absorb all but
// the first, so they generate TLB traffic without inflating walk-level
// counters.
func (b *Builder) Touch(p addrspace.PageID, dups int) {
	for range max(1, dups) {
		if len(b.tail) == chunkRefs {
			b.full = append(b.full, b.tail)
			b.tail = make([]addrspace.PageID, 0, chunkRefs)
		}
		b.tail = append(b.tail, p)
	}
}

// TouchSet references every page of workload-local set idx in address order,
// each page dups times.
func (b *Builder) TouchSet(idx, dups int) {
	s := b.set(idx)
	for off := 0; off < b.g.SetSize(); off++ {
		b.Touch(b.g.PageAt(s, off), dups)
	}
}

// TouchSetOffsets references the pages of set idx at the given offsets, in
// the given order, each dups times.
func (b *Builder) TouchSetOffsets(idx int, offsets []int, dups int) {
	s := b.set(idx)
	for _, off := range offsets {
		b.Touch(b.g.PageAt(s, off), dups)
	}
}

// TouchSubset references n distinct pages of workload-local set idx, chosen
// and ordered at random, each dups times. It draws exactly as
// TouchSetOffsets(idx, b.Shuffled(SetSize)[:n], dups) would, without
// allocating the permutation.
func (b *Builder) TouchSubset(idx, n, dups int) {
	perm := b.subset[:0]
	for off := range b.g.SetSize() {
		perm = append(perm, off)
	}
	b.rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	b.subset = perm
	b.TouchSetOffsets(idx, perm[:n], dups)
}

// Sweep references sets [from, from+count) in ascending order, every page
// once per visit, with dups adjacent duplicates per page.
func (b *Builder) Sweep(from, count, dups int) {
	for i := 0; i < count; i++ {
		b.TouchSet(from+i, dups)
	}
}

// EvenOffsets and OddOffsets return the even/odd page offsets of a set, used
// to model NW's phase-split behaviour (§IV-C of the paper).
func (b *Builder) EvenOffsets() []int { return parityOffsets(b.g.SetSize(), 0) }

// OddOffsets returns the odd page offsets of a set.
func (b *Builder) OddOffsets() []int { return parityOffsets(b.g.SetSize(), 1) }

func parityOffsets(setSize, parity int) []int {
	var out []int
	for off := parity; off < setSize; off += 2 {
		out = append(out, off)
	}
	return out
}

// StrideOffsets returns offsets 0, stride, 2·stride, ... within a set — MVT's
// stride-4 page-touch behaviour wastes HIR entry space exactly this way.
func (b *Builder) StrideOffsets(stride int) []int {
	var out []int
	for off := 0; off < b.g.SetSize(); off += stride {
		out = append(out, off)
	}
	return out
}

// Shuffled returns a deterministic permutation of [0, n).
func (b *Builder) Shuffled(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	b.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
