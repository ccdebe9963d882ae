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
package workload

import (
	"math/rand"

	"hpe/internal/addrspace"
	"hpe/internal/trace"
)

// Builder accumulates a reference string set by set. All randomness flows
// through the seeded rng so generation is deterministic.
type Builder struct {
	g        addrspace.Geometry
	rng      *rand.Rand
	refs     []addrspace.PageID
	barriers []int
	base     addrspace.SetID // first set of the current allocation
}

// NewBuilder returns a builder over the given geometry, with the virtual
// address space of the workload starting at baseSet.
func NewBuilder(g addrspace.Geometry, baseSet addrspace.SetID, seed int64) *Builder {
	return &Builder{g: g, rng: rand.New(rand.NewSource(seed)), base: baseSet}
}

// Refs returns the reference string built so far. The returned slice aliases
// the builder's storage.
func (b *Builder) Refs() []addrspace.PageID { return b.refs }

// Len returns the number of references emitted so far.
func (b *Builder) Len() int { return len(b.refs) }

// Barrier marks a kernel boundary at the current position: later references
// wait until everything before them completes. Generators place one between
// passes, phases, and rounds — the implicit synchronisation of consecutive
// kernel launches.
func (b *Builder) Barrier() {
	if n := len(b.barriers); n > 0 && b.barriers[n-1] == len(b.refs) {
		return // collapse double barriers
	}
	b.barriers = append(b.barriers, len(b.refs))
}

// Barriers returns the kernel boundaries recorded so far.
func (b *Builder) Barriers() []int { return b.barriers }

// Build packages the reference string and barriers into a named trace.
func (b *Builder) Build(name string) *trace.Trace {
	return trace.NewWithBarriers(name, b.refs, b.barriers)
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
	for i := 0; i < max(1, dups); i++ {
		b.refs = append(b.refs, p)
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
