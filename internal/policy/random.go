package policy

import (
	"math/rand"

	"hpe/internal/addrspace"
	"hpe/internal/pagetable"
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
	slab       nodeSlab                // one node per resident page
	index      *pagetable.Table[int32] // page → node
	bucketOf   []int32                 // node → its bucket
	buckets    []lfuBucket
	freeBucket int32 // free buckets, linked through next
	first      int32 // the lowest-count bucket, or nilNode
}

// lfuBucket holds the pages with one reference count, least recent first.
type lfuBucket struct {
	count      uint64
	pages      list
	prev, next int32 // neighbouring buckets in ascending count order
}

// NewLFU returns an empty LFU policy.
func NewLFU() *LFU {
	return &LFU{slab: newNodeSlab(), index: pagetable.New[int32](), freeBucket: nilNode, first: nilNode}
}

// Name implements Policy.
func (l *LFU) Name() string { return "LFU" }

// insertBucket links an empty bucket for count after bucket prev (nilNode
// puts it first) and returns it.
func (l *LFU) insertBucket(count uint64, prev int32) int32 {
	b := lfuBucket{count: count, pages: newList(), prev: prev, next: l.first}
	if prev != nilNode {
		b.next = l.buckets[prev].next
	}
	i := l.freeBucket
	if i != nilNode {
		l.freeBucket = l.buckets[i].next
		l.buckets[i] = b
	} else {
		l.buckets = append(l.buckets, b)
		i = int32(len(l.buckets) - 1)
	}
	if prev != nilNode {
		l.buckets[prev].next = i
	} else {
		l.first = i
	}
	if b.next != nilNode {
		l.buckets[b.next].prev = i
	}
	return i
}

// join appends node i to bucket b.
func (l *LFU) join(b, i int32) {
	l.buckets[b].pages.pushBack(&l.slab, i)
	l.bucketOf[i] = b
}

// leave unlinks node i from its bucket, freeing the bucket if it empties.
func (l *LFU) leave(i int32) {
	b := l.bucketOf[i]
	bk := &l.buckets[b]
	bk.pages.unlink(&l.slab, i)
	if bk.pages.n > 0 {
		return
	}
	if bk.prev != nilNode {
		l.buckets[bk.prev].next = bk.next
	} else {
		l.first = bk.next
	}
	if bk.next != nilNode {
		l.buckets[bk.next].prev = bk.prev
	}
	bk.next = l.freeBucket
	l.freeBucket = b
}

// OnWalkHit implements Policy: move the page to the next count's bucket.
func (l *LFU) OnWalkHit(p addrspace.PageID, seq int) {
	i, ok := l.index.Get(p)
	if !ok {
		return
	}
	b := l.bucketOf[i]
	count := l.buckets[b].count + 1
	next := l.buckets[b].next
	if next == nilNode || l.buckets[next].count != count {
		next = l.insertBucket(count, b)
	}
	l.leave(i)
	l.join(next, i)
}

// OnFault implements Policy.
func (l *LFU) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy: the page enters the count-1 bucket.
func (l *LFU) OnMapped(p addrspace.PageID, seq int) {
	i := l.slab.alloc(p)
	l.index.Put(p, i)
	if int(i) == len(l.bucketOf) {
		l.bucketOf = append(l.bucketOf, nilNode)
	}
	b := l.first
	if b == nilNode || l.buckets[b].count != 1 {
		b = l.insertBucket(1, nilNode)
	}
	l.join(b, i)
}

// SelectVictim implements Policy: minimum count, least recent among ties.
func (l *LFU) SelectVictim() addrspace.PageID {
	if l.first == nilNode {
		panic("policy: LFU.SelectVictim with no resident pages")
	}
	return l.slab.nodes[l.buckets[l.first].pages.head].page
}

// OnEvicted implements Policy.
func (l *LFU) OnEvicted(p addrspace.PageID) {
	i, ok := l.index.Get(p)
	if !ok {
		return
	}
	l.leave(i)
	l.slab.release(i)
	l.index.Delete(p)
}
