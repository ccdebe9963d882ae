package policy

import (
	"fmt"

	"hpe/internal/addrspace"
	"hpe/internal/pagetable"
)

// nilNode is the empty link of an int32-linked list.
const nilNode int32 = -1

// listNode is one page on an int32-linked list. Nodes live in a nodeSlab,
// so a list costs no per-page allocation and no pointers for the GC to trace.
type listNode struct {
	page       addrspace.PageID
	prev, next int32
}

// nodeSlab owns list nodes; freed nodes go on a free list linked through
// next and are reused before the slab grows.
type nodeSlab struct {
	nodes []listNode
	free  int32
}

func newNodeSlab() nodeSlab { return nodeSlab{free: nilNode} }

// alloc returns an unlinked node holding p.
func (s *nodeSlab) alloc(p addrspace.PageID) int32 {
	n := listNode{page: p, prev: nilNode, next: nilNode}
	if i := s.free; i != nilNode {
		s.free = s.nodes[i].next
		s.nodes[i] = n
		return i
	}
	s.nodes = append(s.nodes, n)
	return int32(len(s.nodes) - 1)
}

// release puts an unlinked node on the free list.
func (s *nodeSlab) release(i int32) {
	s.nodes[i].next = s.free
	s.free = i
}

// list is a doubly-linked list of slab nodes, head first.
type list struct {
	head, tail int32
	n          int
}

func newList() list { return list{head: nilNode, tail: nilNode} }

// pushBack links node i at the tail.
func (l *list) pushBack(s *nodeSlab, i int32) {
	n := &s.nodes[i]
	n.prev, n.next = l.tail, nilNode
	if l.tail == nilNode {
		l.head = i
	} else {
		s.nodes[l.tail].next = i
	}
	l.tail = i
	l.n++
}

// unlink removes node i from the list; the node stays allocated.
func (l *list) unlink(s *nodeSlab, i int32) {
	n := &s.nodes[i]
	if n.prev != nilNode {
		s.nodes[n.prev].next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nilNode {
		s.nodes[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nilNode, nilNode
	l.n--
}

// recencyList is a doubly-linked list with O(1) move-to-tail, shared by LRU
// and FIFO (and reused as a building block elsewhere). Head = LRU, tail =
// MRU; a page table maps each page to its node.
type recencyList struct {
	slab  nodeSlab
	order list
	index *pagetable.Table[int32]
}

func newRecencyList() *recencyList {
	return &recencyList{slab: newNodeSlab(), order: newList(), index: pagetable.New[int32]()}
}

func (l *recencyList) len() int { return l.order.n }

func (l *recencyList) contains(p addrspace.PageID) bool {
	_, ok := l.index.Get(p)
	return ok
}

// node returns p's node, or nilNode if p is absent.
func (l *recencyList) node(p addrspace.PageID) int32 {
	if i, ok := l.index.Get(p); ok {
		return i
	}
	return nilNode
}

// pushMRU inserts p at the MRU (tail) position and returns its node; p must
// not be present.
func (l *recencyList) pushMRU(p addrspace.PageID) int32 {
	if l.contains(p) {
		panic(fmt.Sprintf("policy: page %v already in recency list", p))
	}
	i := l.slab.alloc(p)
	l.index.Put(p, i)
	l.order.pushBack(&l.slab, i)
	return i
}

// touch moves p to the MRU position if present, reporting whether it was.
func (l *recencyList) touch(p addrspace.PageID) bool {
	i := l.node(p)
	if i == nilNode {
		return false
	}
	if l.order.tail != i {
		l.order.unlink(&l.slab, i)
		l.order.pushBack(&l.slab, i)
	}
	return true
}

// remove deletes p, reporting whether it was present.
func (l *recencyList) remove(p addrspace.PageID) bool {
	i := l.node(p)
	if i == nilNode {
		return false
	}
	l.order.unlink(&l.slab, i)
	l.slab.release(i)
	l.index.Delete(p)
	return true
}

// lru returns the LRU (head) page; ok is false when empty.
func (l *recencyList) lru() (addrspace.PageID, bool) {
	if l.order.head == nilNode {
		return 0, false
	}
	return l.slab.nodes[l.order.head].page, true
}

// front returns the LRU node, or nilNode; next walks towards the MRU end.
func (l *recencyList) front() int32                  { return l.order.head }
func (l *recencyList) next(i int32) int32            { return l.slab.nodes[i].next }
func (l *recencyList) page(i int32) addrspace.PageID { return l.slab.nodes[i].page }

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
