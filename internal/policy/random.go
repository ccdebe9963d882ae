package policy

import (
	"math/rand"

	"hpe/internal/addrspace"
	"hpe/internal/pagetable"
	"hpe/internal/slab"
)

// Random evicts a uniformly random resident page. Zheng et al. showed random
// to be competitive with LRU for many UVM workloads; the paper corroborates
// that except on Types IV and VI.
type Random struct {
	rng   *rand.Rand
	pages []addrspace.PageID
	pos   *pagetable.Table[int32] // page → index in pages
}

// NewRandom returns a Random policy with a deterministic seed.
func NewRandom(seed int64) *Random {
	return &Random{
		rng: rand.New(rand.NewSource(seed)),
		pos: pagetable.New[int32](),
	}
}

// Name implements Policy.
func (r *Random) Name() string { return "Random" }

// OnWalkHit implements Policy: random ignores reference history.
func (r *Random) OnWalkHit(p addrspace.PageID, seq int) {}

// OnFault implements Policy.
func (r *Random) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy: track the resident set.
func (r *Random) OnMapped(p addrspace.PageID, seq int) {
	r.pos.Put(p, int32(len(r.pages)))
	r.pages = append(r.pages, p)
}

// SelectVictim implements Policy: uniform over resident pages.
func (r *Random) SelectVictim() addrspace.PageID {
	if len(r.pages) == 0 {
		panic("policy: Random.SelectVictim with no resident pages")
	}
	return r.pages[r.rng.Intn(len(r.pages))]
}

// OnEvicted implements Policy: swap-remove from the resident slice.
func (r *Random) OnEvicted(p addrspace.PageID) {
	i, ok := r.pos.Get(p)
	if !ok {
		return
	}
	last := len(r.pages) - 1
	r.pages[i] = r.pages[last]
	r.pos.Put(r.pages[i], i)
	r.pages = r.pages[:last]
	r.pos.Delete(p)
}

// Len returns the number of tracked resident pages.
func (r *Random) Len() int { return len(r.pages) }

// LFU evicts the least-frequently-used resident page (ties broken by least
// recency). The paper's related-work section observes that frequency alone
// is not enough for unified memory; LFU is here to demonstrate that.
//
// Pages sit in count buckets. A bucket holds every resident page with one
// reference count, in the order the pages reached that count, and the
// buckets form a list in ascending count order. A page reaches its count at
// its latest touch (its mapping or a hit), so each bucket is in recency
// order and the head of the first bucket is the minimum-count, least-recent
// page. Every operation is O(1).
type LFU struct {
	pages   slab.Store[lfuPage]     // one node per resident page
	index   *pagetable.Table[int32] // page → node
	buckets slab.Store[lfuBucket]
	counts  slab.List // the buckets in ascending count order
}

// lfuPage is one resident page and the bucket it sits in.
type lfuPage struct {
	page   addrspace.PageID
	bucket int32
}

// lfuBucket holds the pages with one reference count, least recent first.
type lfuBucket struct {
	count uint64
	pages slab.List
}

// NewLFU returns an empty LFU policy.
func NewLFU() *LFU { return &LFU{index: pagetable.New[int32]()} }

// Name implements Policy.
func (l *LFU) Name() string { return "LFU" }

// join appends page node i to the bucket for count, which follows bucket
// prev (slab.Nil: the first bucket); the bucket is made if absent.
func (l *LFU) join(i int32, count uint64, prev int32) {
	b := l.counts.Head()
	if prev != slab.Nil {
		b = l.buckets.Next(prev)
	}
	if b == slab.Nil || l.buckets.At(b).count != count {
		b = l.buckets.Alloc(lfuBucket{count: count})
		l.buckets.InsertAfter(&l.counts, prev, b)
	}
	l.pages.PushBack(&l.buckets.At(b).pages, i)
	l.pages.At(i).bucket = b
}

// dropIfEmpty frees bucket b once its last page has left.
func (l *LFU) dropIfEmpty(b int32) {
	if l.buckets.At(b).pages.Len() == 0 {
		l.buckets.Remove(&l.counts, b)
	}
}

// OnWalkHit implements Policy: move the page to the next count's bucket.
func (l *LFU) OnWalkHit(p addrspace.PageID, seq int) {
	i, _ := l.index.Get(p)
	if i == slab.Nil {
		return
	}
	b := l.pages.At(i).bucket
	bk := l.buckets.At(b)
	l.pages.Unlink(&bk.pages, i)
	l.join(i, bk.count+1, b)
	l.dropIfEmpty(b)
}

// OnFault implements Policy.
func (l *LFU) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy: the page enters the count-1 bucket.
func (l *LFU) OnMapped(p addrspace.PageID, seq int) {
	i := l.pages.Alloc(lfuPage{page: p})
	l.index.Put(p, i)
	l.join(i, 1, slab.Nil)
}

// SelectVictim implements Policy: minimum count, least recent among ties.
func (l *LFU) SelectVictim() addrspace.PageID {
	first := l.counts.Head()
	if first == slab.Nil {
		panic("policy: LFU.SelectVictim with no resident pages")
	}
	return l.pages.At(l.buckets.At(first).pages.Head()).page
}

// OnEvicted implements Policy.
func (l *LFU) OnEvicted(p addrspace.PageID) {
	i, _ := l.index.Get(p)
	if i == slab.Nil {
		return
	}
	b := l.pages.At(i).bucket
	l.pages.Remove(&l.buckets.At(b).pages, i)
	l.index.Delete(p)
	l.dropIfEmpty(b)
}
