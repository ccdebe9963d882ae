package policy

import (
	"fmt"

	"hpe/internal/addrspace"
	"hpe/internal/pagetable"
	"hpe/internal/slab"
)

// recencyList is one list of slab nodes keyed by page, shared by LRU, FIFO,
// NRU and SetLRU: head = LRU, tail = MRU. A page table maps each key to its
// node, and each node's payload T holds whatever per-key state the policy
// keeps beside its position.
type recencyList[T any] struct {
	nodes slab.Store[T]
	order slab.List
	index *pagetable.Table[int32]
}

func newRecencyList[T any]() *recencyList[T] {
	return &recencyList[T]{index: pagetable.New[int32]()}
}

func (l *recencyList[T]) len() int { return l.order.Len() }

// node returns p's node, or slab.Nil if p is absent.
func (l *recencyList[T]) node(p addrspace.PageID) int32 {
	i, _ := l.index.Get(p)
	return i
}

// get returns p's payload, or nil if p is absent.
func (l *recencyList[T]) get(p addrspace.PageID) *T {
	if i := l.node(p); i != slab.Nil {
		return l.nodes.At(i)
	}
	return nil
}

// pushMRU inserts p with payload v at the MRU (tail) position; p must not be
// present.
func (l *recencyList[T]) pushMRU(p addrspace.PageID, v T) {
	if l.node(p) != slab.Nil {
		panic(fmt.Sprintf("policy: page %v already in recency list", p))
	}
	i := l.nodes.Alloc(v)
	l.index.Put(p, i)
	l.nodes.PushBack(&l.order, i)
}

// touch moves p to the MRU position if present, reporting whether it was.
func (l *recencyList[T]) touch(p addrspace.PageID) bool {
	i := l.node(p)
	if i == slab.Nil {
		return false
	}
	if l.order.Tail() != i {
		l.nodes.Unlink(&l.order, i)
		l.nodes.PushBack(&l.order, i)
	}
	return true
}

// remove deletes p, reporting whether it was present.
func (l *recencyList[T]) remove(p addrspace.PageID) bool {
	i := l.node(p)
	if i == slab.Nil {
		return false
	}
	l.nodes.Remove(&l.order, i)
	l.index.Delete(p)
	return true
}

// lru returns the LRU (head) payload, or nil when the list is empty.
func (l *recencyList[T]) lru() *T {
	if l.order.Head() == slab.Nil {
		return nil
	}
	return l.nodes.At(l.order.Head())
}

// LRU is the classic least-recently-used page replacement policy, managed at
// page granularity, under the paper's "ideal model": walk hits and faults
// both refresh recency in exact reference order.
type LRU struct {
	chain *recencyList[addrspace.PageID]
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{chain: newRecencyList[addrspace.PageID]()} }

// Name implements Policy.
func (l *LRU) Name() string { return "LRU" }

// OnWalkHit implements Policy: refresh recency.
func (l *LRU) OnWalkHit(p addrspace.PageID, seq int) { l.chain.touch(p) }

// OnFault implements Policy (no-op: the page is inserted on OnMapped).
func (l *LRU) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy: insert at MRU.
func (l *LRU) OnMapped(p addrspace.PageID, seq int) { l.chain.pushMRU(p, p) }

// SelectVictim implements Policy: the LRU page.
func (l *LRU) SelectVictim() addrspace.PageID {
	p := l.chain.lru()
	if p == nil {
		panic("policy: LRU.SelectVictim on empty chain")
	}
	return *p
}

// OnEvicted implements Policy.
func (l *LRU) OnEvicted(p addrspace.PageID) { l.chain.remove(p) }

// Len returns the number of tracked resident pages.
func (l *LRU) Len() int { return l.chain.len() }

// FIFO evicts in arrival order, ignoring hits. Not evaluated in the paper;
// provided as an additional reference point for the ablation benches.
type FIFO struct {
	chain *recencyList[addrspace.PageID]
}

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO { return &FIFO{chain: newRecencyList[addrspace.PageID]()} }

// Name implements Policy.
func (f *FIFO) Name() string { return "FIFO" }

// OnWalkHit implements Policy: FIFO ignores hits.
func (f *FIFO) OnWalkHit(p addrspace.PageID, seq int) {}

// OnFault implements Policy.
func (f *FIFO) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy.
func (f *FIFO) OnMapped(p addrspace.PageID, seq int) { f.chain.pushMRU(p, p) }

// SelectVictim implements Policy: the oldest arrival.
func (f *FIFO) SelectVictim() addrspace.PageID {
	p := f.chain.lru()
	if p == nil {
		panic("policy: FIFO.SelectVictim on empty chain")
	}
	return *p
}

// OnEvicted implements Policy.
func (f *FIFO) OnEvicted(p addrspace.PageID) { f.chain.remove(p) }
