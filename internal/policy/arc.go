package policy

import (
	"fmt"

	"hpe/internal/addrspace"
	"hpe/internal/pagetable"
	"hpe/internal/slab"
)

// ARC implements the Adaptive Replacement Cache (Megiddo & Modha, FAST '03),
// which the paper's related-work section cites as an influential self-tuning
// policy (CAR and CLOCK-Pro both build on its ideas). Four lists: T1 holds
// pages seen once recently, T2 pages seen at least twice; B1/B2 are their
// ghost extensions (metadata of recently evicted pages). A hit in a ghost
// list adapts the target size p of T1.
//
// Adaptation to the UVM driver contract: the driver evicts exactly one page
// per fault (SelectVictim → OnEvicted), and maps the faulting page afterward
// (OnMapped). ARC's REPLACE decision is computed in SelectVictim from the
// ghost status of the pending fault, recorded in OnFault.
type ARC struct {
	capacity int
	p        int // target size of T1

	// One node per directory page, found through one page table; each
	// node's payload names the list it is on.
	nodes slab.Store[arcPage]
	index *pagetable.Table[int32]
	lists [4]slab.List // t1, t2, b1, b2; head = LRU

	// pending describes the fault being serviced: whether the page hit a
	// ghost list (and which), so that REPLACE and the final insertion behave
	// per the ARC pseudocode.
	pendingPage addrspace.PageID
	pendingList int // 0 = cold miss, 1 = B1 hit, 2 = B2 hit
}

// ARC's lists, indexing ARC.lists. B1 and B2 follow T1 and T2 in the same
// order, so a page's ghost list is two past its resident list.
const (
	t1 uint8 = iota
	t2
	b1
	b2
)

// arcPage is one ARC directory node: the page and the list it is on.
type arcPage struct {
	page addrspace.PageID
	list uint8
}

// NewARC returns an ARC policy for a memory of capacityPages.
func NewARC(capacityPages int) *ARC {
	if capacityPages <= 0 {
		panic(fmt.Sprintf("policy: ARC capacity %d must be positive", capacityPages))
	}
	return &ARC{capacity: capacityPages, index: pagetable.New[int32]()}
}

// Name implements Policy.
func (a *ARC) Name() string { return "ARC" }

func (a *ARC) len(k uint8) int { return a.lists[k].Len() }

// lookup returns p's node and the list it is on, or slab.Nil when p is not
// in the directory.
func (a *ARC) lookup(p addrspace.PageID) (i int32, k uint8) {
	if i, _ = a.index.Get(p); i != slab.Nil {
		k = a.nodes.At(i).list
	}
	return i, k
}

// move relinks node i at the MRU end of list k.
func (a *ARC) move(i int32, k uint8) {
	e := a.nodes.At(i)
	a.nodes.Unlink(&a.lists[e.list], i)
	e.list = k
	a.nodes.PushBack(&a.lists[k], i)
}

// dropLRU removes list k's LRU page from the directory.
func (a *ARC) dropLRU(k uint8) {
	i := a.lists[k].Head()
	a.index.Delete(a.nodes.At(i).page)
	a.nodes.Remove(&a.lists[k], i)
}

// OnWalkHit implements Policy: a resident hit promotes the page to T2 MRU.
func (a *ARC) OnWalkHit(p addrspace.PageID, seq int) {
	if i, k := a.lookup(p); i != slab.Nil && k <= t2 {
		a.move(i, t2)
	}
}

// OnFault implements Policy: record ghost status and adapt p.
func (a *ARC) OnFault(p addrspace.PageID, seq int) {
	a.pendingPage, a.pendingList = p, 0
	i, k := a.lookup(p)
	if i == slab.Nil || k <= t2 {
		return
	}
	nb1, nb2 := a.len(b1), a.len(b2)
	if k == b1 {
		a.pendingList = 1
		a.p = min(a.capacity, a.p+max(nb2/nb1, 1))
	} else {
		a.pendingList = 2
		a.p = max(0, a.p-max(nb1/nb2, 1))
	}
}

// SelectVictim implements Policy: ARC's REPLACE — evict from T1 when it
// exceeds its target (or exactly meets it on a B2 hit), otherwise from T2.
func (a *ARC) SelectVictim() addrspace.PageID {
	t1Len := a.len(t1)
	k := t2
	if t1Len > 0 && (t1Len > a.p || (a.pendingList == 2 && t1Len == a.p)) || a.len(t2) == 0 {
		k = t1
	}
	i := a.lists[k].Head()
	if i == slab.Nil {
		panic("policy: ARC.SelectVictim with no resident pages")
	}
	return a.nodes.At(i).page
}

// OnEvicted implements Policy: the page's metadata moves to the matching
// ghost list.
func (a *ARC) OnEvicted(p addrspace.PageID) {
	if i, k := a.lookup(p); i != slab.Nil && k <= t2 {
		a.move(i, k+b1)
	}
	a.trimGhosts()
}

// OnMapped implements Policy: complete the insertion — ghost hits go to T2,
// cold misses to T1 — and drop the page's ghost entry.
func (a *ARC) OnMapped(p addrspace.PageID, seq int) {
	i, k := a.lookup(p)
	ghost := i != slab.Nil
	if ghost && k <= t2 {
		panic(fmt.Sprintf("policy: ARC mapping already-resident %v", p))
	}
	k = t1
	if (p == a.pendingPage && a.pendingList != 0) || (p != a.pendingPage && ghost) {
		k = t2
	}
	if ghost {
		a.move(i, k)
	} else {
		i = a.nodes.Alloc(arcPage{page: p, list: k})
		a.index.Put(p, i)
		a.nodes.PushBack(&a.lists[k], i)
	}
	a.trimGhosts()
}

// trimGhosts enforces ARC's directory bounds: |T1|+|B1| ≤ c and the whole
// directory ≤ 2c.
func (a *ARC) trimGhosts() {
	for a.len(t1)+a.len(b1) > a.capacity && a.len(b1) > 0 {
		a.dropLRU(b1)
	}
	for a.len(t1)+a.len(t2)+a.len(b1)+a.len(b2) > 2*a.capacity && a.len(b2) > 0 {
		a.dropLRU(b2)
	}
}
