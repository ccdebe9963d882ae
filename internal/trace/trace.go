// Package trace represents page-granularity memory reference strings.
//
// A Trace is the canonical, global ordering of page touches produced by a
// workload generator (the post-coalescer access stream of the paper's CUDA
// applications, reduced to virtual page numbers). The GPU simulator carves a
// Trace into per-warp chunks; the Ideal (Belady MIN) policy uses the
// canonical order as its oracle of the future.
//
// Every trace is made by New, the one constructor, which checks the barrier,
// segment and tenant rules once and counts the footprint. Generators reach it
// through workload.Builder; Read reaches it after decoding a .hpet stream.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"hpe/internal/addrspace"
	"hpe/internal/pagetable"
)

// Trace is an ordered page reference string with a name for reporting. It is
// immutable once constructed: New checks its annotations and counts its
// footprint once, and nothing writes to a trace afterwards, so any number of
// goroutines may share one without synchronisation.
type Trace struct {
	// Name identifies the workload that produced the trace.
	Name string
	// Refs is the canonical global reference order.
	Refs []addrspace.PageID
	// Barriers holds kernel-boundary positions, strictly ascending and
	// strictly inside the trace: references at or after Barriers[i] may not
	// issue until every reference before it has completed. They model the
	// implicit synchronisation between kernel launches, which bounds how far
	// a GPU can run ahead of its page-fault frontier.
	Barriers []int
	// Segments annotates contiguous reference ranges with the temporal phase
	// (or tenant quantum) that produced them and its compute gap. Empty for
	// stationary single-app traces — the simulator then applies one global
	// compute gap, the exact pre-annotation fast path. When non-empty the
	// segments are sorted ascending by Start and the first Start is 0.
	Segments []Segment
	// Tenants names the disjoint page ranges of co-located applications, for
	// per-tenant fault/eviction attribution. Empty for single-app traces.
	Tenants []TenantRange

	footprint int // unique pages in Refs, counted at construction
}

// Segment annotates references [Start, nextSegment.Start) — or through the
// end of the trace for the last segment — with the phase that emitted them.
type Segment struct {
	// Start is the index of the segment's first reference.
	Start int
	// Phase identifies which schedule phase (or, for co-located traces, which
	// tenant) produced the segment. Display vocabulary, not identity.
	Phase int
	// Gap is the per-access compute-instruction count in effect during the
	// segment, overriding the run's global ComputeGap.
	Gap int
}

// maxSegmentField bounds a segment's Phase and Gap.
const maxSegmentField = 1 << 20

// TenantRange names one co-located application's page range [Lo, Hi).
type TenantRange struct {
	// Name identifies the tenant for reporting (its app abbreviation).
	Name string
	// Lo and Hi bound the tenant's pages: Lo inclusive, Hi exclusive.
	Lo, Hi addrspace.PageID
}

// Annotated reports whether the trace carries v2 phase/tenant annotations
// (and therefore serializes in the versioned v2 wire format).
func (t *Trace) Annotated() bool {
	return len(t.Segments) > 0 || len(t.Tenants) > 0
}

// TenantIndex returns the index of the range in tens containing page p, or
// -1 when p falls outside every range. A linear scan: a colocation has at
// most a handful of tenants.
func TenantIndex(tens []TenantRange, p addrspace.PageID) int {
	for i := range tens {
		if p >= tens[i].Lo && p < tens[i].Hi {
			return i
		}
	}
	return -1
}

// New returns the trace over refs with the given kernel barriers, phase
// segments and tenant ranges, or an error naming the first rule they break:
//   - barriers are non-negative and ascending; duplicates and positions at
//     either end of the trace (0 and len(refs) or beyond) are dropped;
//   - segments start at 0, their starts ascend strictly and stay within
//     [0, len(refs)], and each Phase and Gap lies in [0, 1<<20];
//   - tenant ranges are non-empty, sorted by Lo and pairwise disjoint.
//
// It is the only constructor: generators build through workload.Builder,
// which panics on an error, and Read wraps one in ErrBadTrace. The slices are
// retained, not copied, and must not be modified afterwards.
func New(name string, refs []addrspace.PageID, barriers []int, segs []Segment, tens []TenantRange) (*Trace, error) {
	clean := make([]int, 0, len(barriers))
	prev := 0
	for i, b := range barriers {
		if b < prev {
			return nil, fmt.Errorf("trace: barrier %d at %d not ascending", i, b)
		}
		if b > prev && b < len(refs) {
			clean = append(clean, b)
		}
		prev = b
	}
	for i, s := range segs {
		switch {
		case i == 0 && s.Start != 0:
			return nil, fmt.Errorf("trace: first segment starts at %d, want 0", s.Start)
		case i > 0 && s.Start <= segs[i-1].Start:
			return nil, fmt.Errorf("trace: segment %d start %d not ascending", i, s.Start)
		case s.Start > len(refs):
			return nil, fmt.Errorf("trace: segment %d start %d past the %d references", i, s.Start, len(refs))
		case s.Phase < 0 || s.Phase > maxSegmentField || s.Gap < 0 || s.Gap > maxSegmentField:
			return nil, fmt.Errorf("trace: segment %d phase %d or gap %d outside [0,%d]", i, s.Phase, s.Gap, maxSegmentField)
		}
	}
	for i, r := range tens {
		if r.Hi <= r.Lo {
			return nil, fmt.Errorf("trace: tenant %d range [%d,%d) empty", i, r.Lo, r.Hi)
		}
		if i > 0 && r.Lo < tens[i-1].Hi {
			return nil, fmt.Errorf("trace: tenant %d range [%d,%d) overlaps previous", i, r.Lo, r.Hi)
		}
	}
	seen := pagetable.New[struct{}]()
	for _, p := range refs {
		seen.Put(p, struct{}{})
	}
	return &Trace{Name: name, Refs: refs, Barriers: clean, Segments: segs, Tenants: tens, footprint: seen.Len()}, nil
}

// Len returns the number of references.
func (t *Trace) Len() int { return len(t.Refs) }

// Footprint returns the number of unique pages referenced.
func (t *Trace) Footprint() int { return t.footprint }

// FootprintBytes returns the footprint in bytes (unique pages × page size).
func (t *Trace) FootprintBytes() uint64 {
	return uint64(t.Footprint()) * addrspace.PageBytes
}

// UniquePages returns the sorted set of unique pages referenced.
func (t *Trace) UniquePages() []addrspace.PageID {
	seen := make(map[addrspace.PageID]struct{}, len(t.Refs)/4+1)
	for _, p := range t.Refs {
		seen[p] = struct{}{}
	}
	out := make([]addrspace.PageID, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Counts returns the reference count of each page.
func (t *Trace) Counts() map[addrspace.PageID]int {
	m := make(map[addrspace.PageID]int, len(t.Refs)/4+1)
	for _, p := range t.Refs {
		m[p]++
	}
	return m
}

// FutureIndex precomputes, for each page, the sorted list of positions at
// which it is referenced in the canonical order. The Ideal policy queries it
// to find each resident page's next use after a given position.
//
// The lists share one flat positions slice: runs maps each page to its run
// number r, and run r is positions[offsets[r]:offsets[r+1]]. runs is a
// pagetable.Table, whose Get writes nothing, because one index is shared by
// every concurrent run over its trace.
type FutureIndex struct {
	runs      *pagetable.Table[int32]
	offsets   []int
	positions []int
	length    int
}

// BuildFutureIndex indexes the trace for Belady-MIN queries.
func BuildFutureIndex(t *Trace) *FutureIndex {
	runs := pagetable.New[int32]()
	counts := make([]int, 0, t.Footprint())
	for _, p := range t.Refs {
		r, ok := runs.Get(p)
		if !ok {
			r = int32(len(counts))
			runs.Put(p, r)
			counts = append(counts, 0)
		}
		counts[r]++
	}
	offsets := make([]int, len(counts)+1)
	for r, c := range counts {
		offsets[r+1] = offsets[r] + c
	}
	// counts becomes each run's fill cursor.
	copy(counts, offsets)
	positions := make([]int, len(t.Refs))
	for i, p := range t.Refs {
		r, _ := runs.Get(p)
		positions[counts[r]] = i
		counts[r]++
	}
	return &FutureIndex{runs: runs, offsets: offsets, positions: positions, length: len(t.Refs)}
}

// Len returns the length of the indexed trace.
func (f *FutureIndex) Len() int { return f.length }

// Pages returns the number of distinct pages indexed: the trace's footprint.
func (f *FutureIndex) Pages() int { return len(f.offsets) - 1 }

// NextUse returns the first position strictly after `after` at which page p
// is referenced, or (0, false) if p is never referenced again. after = -1
// asks for the first reference.
func (f *FutureIndex) NextUse(p addrspace.PageID, after int) (int, bool) {
	r, ok := f.runs.Get(p)
	if !ok {
		return 0, false
	}
	ps := f.positions[f.offsets[r]:f.offsets[r+1]]
	i := sort.SearchInts(ps, after+1)
	if i == len(ps) {
		return 0, false
	}
	return ps[i], true
}

// --- binary codec -----------------------------------------------------------
//
// Format (little-endian varints except the magic):
//   magic "HPET" | version byte | name length uvarint | name bytes |
//   ref count uvarint | refs as delta-zigzag varints |
//   barrier count uvarint | barriers as delta uvarints
// Delta encoding exploits the spatial locality of GPU traces: most deltas are
// tiny, so a multi-million-reference trace compresses to ~1–2 bytes/ref.
//
// The version byte distinguishes the two on-disk trace formats (DESIGN.md
// §14.3): byte traceVersionV1 is "trace v1", the stationary record layout
// above, and byte traceVersionV2 is "trace v2", which appends the phase and
// tenant annotation tables:
//   segment count uvarint | segments as (start delta, phase, gap) uvarints |
//   tenant count uvarint | tenants as (name len, name, lo delta, hi-lo) uvarints
// Write picks the version from the trace itself — an unannotated trace
// serializes byte-identically to the pre-v2 encoder, so existing .hpet files
// and their byte-level fixtures are unchanged.

var traceMagic = [4]byte{'H', 'P', 'E', 'T'}

const (
	// traceVersionV1 is the stationary trace layout ("trace v1" in the docs;
	// the byte value 2 is historical — version byte 1 predates barriers).
	traceVersionV1 = 2
	// traceVersionV2 appends the phase-segment and tenant-range tables.
	traceVersionV2 = 3
)

// ErrBadTrace is returned when decoding input that is not a valid trace.
var ErrBadTrace = errors.New("trace: malformed trace stream")

// Write encodes the trace to w in the binary trace format: the v1 layout for
// stationary traces (byte-identical to the pre-annotation encoder), the v2
// layout when phase/tenant annotations are present.
func (t *Trace) Write(w io.Writer) error {
	version := byte(traceVersionV1)
	if t.Annotated() {
		version = traceVersionV2
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(version); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(t.Name)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	n = binary.PutUvarint(buf[:], uint64(len(t.Refs)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	prev := uint64(0)
	for _, p := range t.Refs {
		delta := int64(uint64(p)) - int64(prev)
		n = binary.PutVarint(buf[:], delta)
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		prev = uint64(p)
	}
	n = binary.PutUvarint(buf[:], uint64(len(t.Barriers)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	prevB := 0
	for _, b := range t.Barriers {
		n = binary.PutUvarint(buf[:], uint64(b-prevB))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		prevB = b
	}
	if version == traceVersionV2 {
		if err := t.writeAnnotations(bw, buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeAnnotations appends the v2 segment and tenant tables.
func (t *Trace) writeAnnotations(bw *bufio.Writer, buf []byte) error {
	putU := func(v uint64) error {
		n := binary.PutUvarint(buf, v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putU(uint64(len(t.Segments))); err != nil {
		return err
	}
	prevStart := 0
	for _, seg := range t.Segments {
		if err := putU(uint64(seg.Start - prevStart)); err != nil {
			return err
		}
		if err := putU(uint64(seg.Phase)); err != nil {
			return err
		}
		if err := putU(uint64(seg.Gap)); err != nil {
			return err
		}
		prevStart = seg.Start
	}
	if err := putU(uint64(len(t.Tenants))); err != nil {
		return err
	}
	prevHi := uint64(0)
	for _, ten := range t.Tenants {
		if err := putU(uint64(len(ten.Name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(ten.Name); err != nil {
			return err
		}
		if err := putU(uint64(ten.Lo) - prevHi); err != nil {
			return err
		}
		if err := putU(uint64(ten.Hi - ten.Lo)); err != nil {
			return err
		}
		prevHi = uint64(ten.Hi)
	}
	return nil
}

// Read decodes a trace from r. A malformed stream, or one whose annotations
// New rejects, returns an error wrapping ErrBadTrace.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic[:])
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if ver != traceVersionV1 && ver != traceVersionV2 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, ver)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if nameLen > 1<<20 {
		return nil, fmt.Errorf("%w: name length %d too large", ErrBadTrace, nameLen)
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBytes); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if count > 1<<32 {
		return nil, fmt.Errorf("%w: ref count %d too large", ErrBadTrace, count)
	}
	// Grow by append with a bounded initial capacity: a forged count must
	// not pre-allocate gigabytes before the stream runs dry.
	refs := make([]addrspace.PageID, 0, min(count, 1<<20))
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: ref %d: %v", ErrBadTrace, i, err)
		}
		prev += delta
		if prev < 0 {
			return nil, fmt.Errorf("%w: negative page at ref %d", ErrBadTrace, i)
		}
		refs = append(refs, addrspace.PageID(prev))
	}
	nBarriers, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: barrier count: %v", ErrBadTrace, err)
	}
	if nBarriers > uint64(len(refs))+1 {
		return nil, fmt.Errorf("%w: %d barriers for %d refs", ErrBadTrace, nBarriers, len(refs))
	}
	barriers := make([]int, 0, min(nBarriers, 1<<16))
	acc := 0
	for i := uint64(0); i < nBarriers; i++ {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: barrier %d: %v", ErrBadTrace, i, err)
		}
		acc += int(d)
		barriers = append(barriers, acc)
	}
	var segs []Segment
	var tens []TenantRange
	if ver == traceVersionV2 {
		if segs, tens, err = readAnnotations(br, len(refs)); err != nil {
			return nil, err
		}
	}
	t, err := New(string(nameBytes), refs, barriers, segs, tens)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	return t, nil
}

// readAnnotations decodes the v2 segment and tenant tables of a trace with
// nRefs references. It enforces only the decode limits that bound what a
// forged stream can allocate; New checks the annotation rules.
func readAnnotations(br *bufio.Reader, nRefs int) ([]Segment, []TenantRange, error) {
	nSegs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: segment count: %v", ErrBadTrace, err)
	}
	if nSegs > uint64(nRefs) {
		return nil, nil, fmt.Errorf("%w: %d segments for %d refs", ErrBadTrace, nSegs, nRefs)
	}
	segs := make([]Segment, 0, min(nSegs, 1<<16))
	start := 0
	for i := uint64(0); i < nSegs; i++ {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: segment %d start: %v", ErrBadTrace, i, err)
		}
		phase, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: segment %d phase: %v", ErrBadTrace, i, err)
		}
		gap, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: segment %d gap: %v", ErrBadTrace, i, err)
		}
		start += int(d)
		segs = append(segs, Segment{Start: start, Phase: int(phase), Gap: int(gap)})
	}
	nTen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: tenant count: %v", ErrBadTrace, err)
	}
	if nTen > 1<<10 {
		return nil, nil, fmt.Errorf("%w: tenant count %d too large", ErrBadTrace, nTen)
	}
	tens := make([]TenantRange, 0, nTen)
	prevHi := uint64(0)
	for i := uint64(0); i < nTen; i++ {
		nameLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: tenant %d name length: %v", ErrBadTrace, i, err)
		}
		if nameLen > 1<<10 {
			return nil, nil, fmt.Errorf("%w: tenant %d name length %d too large", ErrBadTrace, i, nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, nil, fmt.Errorf("%w: tenant %d name: %v", ErrBadTrace, i, err)
		}
		loD, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: tenant %d lo: %v", ErrBadTrace, i, err)
		}
		span, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: tenant %d span: %v", ErrBadTrace, i, err)
		}
		lo := prevHi + loD
		if lo+span > 1<<62 {
			return nil, nil, fmt.Errorf("%w: tenant %d range beyond page 1<<62", ErrBadTrace, i)
		}
		tens = append(tens, TenantRange{Name: string(name), Lo: addrspace.PageID(lo), Hi: addrspace.PageID(lo + span)})
		prevHi = lo + span
	}
	return segs, tens, nil
}
