// Package slab is the one linked-node store behind every recency chain of
// the eviction policies and HPE: LRU's and FIFO's lists, LFU's count
// buckets, CLOCK-Pro's ring, ARC's four lists and HPE's page-set chain.
//
// A Store holds nodes, each a payload plus int32 prev/next links, in one
// slice, so a chain costs no per-node allocation and no pointers for the GC
// to trace. A List is a head, a tail and a length over one Store; several
// lists may share a Store, and a node moves between them without being
// reallocated. Node 0 is never handed out: Nil is the empty link, so a
// zero-valued link, List or record that names nodes means "none".
package slab

// Nil is the empty link.
const Nil int32 = 0

type node[T any] struct {
	val        T
	prev, next int32
}

// Store owns nodes. Removed nodes are reused last-removed-first before the
// store grows. The zero Store is ready to use.
type Store[T any] struct {
	nodes []node[T] // nodes[Nil] is never handed out
	free  int32     // removed nodes, linked through next
}

// Alloc returns an unlinked node holding v and nothing else.
func (s *Store[T]) Alloc(v T) int32 {
	if i := s.free; i != Nil {
		s.free = s.nodes[i].next
		s.nodes[i] = node[T]{val: v}
		return i
	}
	if len(s.nodes) == 0 {
		s.nodes = append(s.nodes, node[T]{})
	}
	s.nodes = append(s.nodes, node[T]{val: v})
	return int32(len(s.nodes) - 1)
}

// At returns node i's payload, valid until the next Alloc.
func (s *Store[T]) At(i int32) *T { return &s.nodes[i].val }

// Next returns the node after i on its list, or Nil at the tail.
func (s *Store[T]) Next(i int32) int32 { return s.nodes[i].next }

// Prev returns the node before i on its list, or Nil at the head.
func (s *Store[T]) Prev(i int32) int32 { return s.nodes[i].prev }

// Size returns the number of nodes the store has handed out, reused ones
// counted once.
func (s *Store[T]) Size() int { return max(len(s.nodes)-1, 0) }

// Removed returns the number of removed nodes awaiting reuse (O(removed)).
func (s *Store[T]) Removed() int {
	n := 0
	for i := s.free; i != Nil; i = s.nodes[i].next {
		n++
	}
	return n
}

// List is a doubly-linked list of one Store's nodes, head first. The zero
// List is empty.
type List struct {
	head, tail int32
	n          int
}

// Head returns the first node, or Nil when the list is empty.
func (l *List) Head() int32 { return l.head }

// Tail returns the last node, or Nil when the list is empty.
func (l *List) Tail() int32 { return l.tail }

// Len returns the number of nodes on the list.
func (l *List) Len() int { return l.n }

// InsertAfter links the unlinked node i into l after node at, or at the
// front when at is Nil.
func (s *Store[T]) InsertAfter(l *List, at, i int32) {
	next := l.head
	if at == Nil {
		l.head = i
	} else {
		next = s.nodes[at].next
		s.nodes[at].next = i
	}
	if next == Nil {
		l.tail = i
	} else {
		s.nodes[next].prev = i
	}
	n := &s.nodes[i]
	n.prev, n.next = at, next
	l.n++
}

// PushBack links the unlinked node i at the tail of l.
func (s *Store[T]) PushBack(l *List, i int32) { s.InsertAfter(l, l.tail, i) }

// Unlink removes node i from l; the node stays allocated and may be linked
// again, into l or another list of the same store.
func (s *Store[T]) Unlink(l *List, i int32) {
	n := &s.nodes[i]
	if n.prev == Nil {
		l.head = n.next
	} else {
		s.nodes[n.prev].next = n.next
	}
	if n.next == Nil {
		l.tail = n.prev
	} else {
		s.nodes[n.next].prev = n.prev
	}
	l.n--
}

// Remove unlinks node i from l and frees it for reuse.
func (s *Store[T]) Remove(l *List, i int32) {
	s.Unlink(l, i)
	s.nodes[i].next = s.free
	s.free = i
}
