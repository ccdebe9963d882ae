package policy

import (
	"fmt"

	"hpe/internal/addrspace"
)

// lruNode is an intrusive doubly-linked-list node. The recency chain is
// ordered head = LRU, tail = MRU.
type lruNode struct {
	page       addrspace.PageID
	prev, next *lruNode
}

// recencyList is a doubly-linked list with O(1) move-to-tail, shared by LRU
// and FIFO (and reused as a building block elsewhere).
type recencyList struct {
	head, tail *lruNode
	index      map[addrspace.PageID]*lruNode
}

func newRecencyList() *recencyList {
	return &recencyList{index: make(map[addrspace.PageID]*lruNode)}
}

func (l *recencyList) len() int { return len(l.index) }

func (l *recencyList) contains(p addrspace.PageID) bool {
	_, ok := l.index[p]
	return ok
}

// pushMRU inserts p at the MRU (tail) position; p must not be present.
func (l *recencyList) pushMRU(p addrspace.PageID) {
	if _, ok := l.index[p]; ok {
		panic(fmt.Sprintf("policy: page %v already in recency list", p))
	}
	//lint:ignore hpelint/hotalloc one node per mapped page; mapping happens on the priced far-fault path
	n := &lruNode{page: p}
	l.index[p] = n
	if l.tail == nil {
		l.head, l.tail = n, n
		return
	}
	n.prev = l.tail
	l.tail.next = n
	l.tail = n
}

// touch moves p to the MRU position if present, reporting whether it was.
func (l *recencyList) touch(p addrspace.PageID) bool {
	n, ok := l.index[p]
	if !ok {
		return false
	}
	if l.tail == n {
		return true
	}
	l.unlink(n)
	n.prev, n.next = l.tail, nil
	l.tail.next = n
	l.tail = n
	return true
}

func (l *recencyList) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// remove deletes p, reporting whether it was present.
func (l *recencyList) remove(p addrspace.PageID) bool {
	n, ok := l.index[p]
	if !ok {
		return false
	}
	l.unlink(n)
	delete(l.index, p)
	return true
}

// lru returns the LRU (head) page; ok is false when empty.
func (l *recencyList) lru() (addrspace.PageID, bool) {
	if l.head == nil {
		return 0, false
	}
	return l.head.page, true
}

// LRU is the classic least-recently-used page replacement policy, managed at
// page granularity, under the paper's "ideal model": walk hits and faults
// both refresh recency in exact reference order.
type LRU struct {
	chain *recencyList
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{chain: newRecencyList()} }

// Name implements Policy.
func (l *LRU) Name() string { return "LRU" }

// OnWalkHit implements Policy: refresh recency.
func (l *LRU) OnWalkHit(p addrspace.PageID, seq int) { l.chain.touch(p) }

// OnFault implements Policy (no-op: the page is inserted on OnMapped).
func (l *LRU) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy: insert at MRU.
func (l *LRU) OnMapped(p addrspace.PageID, seq int) { l.chain.pushMRU(p) }

// SelectVictim implements Policy: the LRU page.
func (l *LRU) SelectVictim() addrspace.PageID {
	p, ok := l.chain.lru()
	if !ok {
		panic("policy: LRU.SelectVictim on empty chain")
	}
	return p
}

// OnEvicted implements Policy.
func (l *LRU) OnEvicted(p addrspace.PageID) { l.chain.remove(p) }

// Len returns the number of tracked resident pages.
func (l *LRU) Len() int { return l.chain.len() }

// FIFO evicts in arrival order, ignoring hits. Not evaluated in the paper;
// provided as an additional reference point for the ablation benches.
type FIFO struct {
	chain *recencyList
}

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO { return &FIFO{chain: newRecencyList()} }

// Name implements Policy.
func (f *FIFO) Name() string { return "FIFO" }

// OnWalkHit implements Policy: FIFO ignores hits.
func (f *FIFO) OnWalkHit(p addrspace.PageID, seq int) {}

// OnFault implements Policy.
func (f *FIFO) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy.
func (f *FIFO) OnMapped(p addrspace.PageID, seq int) { f.chain.pushMRU(p) }

// SelectVictim implements Policy: the oldest arrival.
func (f *FIFO) SelectVictim() addrspace.PageID {
	p, ok := f.chain.lru()
	if !ok {
		panic("policy: FIFO.SelectVictim on empty chain")
	}
	return p
}

// OnEvicted implements Policy.
func (f *FIFO) OnEvicted(p addrspace.PageID) { f.chain.remove(p) }
