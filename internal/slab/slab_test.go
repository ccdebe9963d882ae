package slab_test

import (
	"container/list"
	"math/rand"
	"testing"

	"hpe/internal/slab"
)

// payload is a node's value: a unique id, plus a mark set while the node is
// live, so a reused node that kept any of its old payload shows.
type payload struct {
	id     int
	marked bool
}

// FuzzStore drives two lists over one Store and two container/list models
// with the same operations — inserts at the front, after a live node and at
// the tail, moves between the lists, and removals — and after every step
// requires equal contents walked in both directions, equal lengths,
// last-removed-first reuse, and reused nodes that hold only their new
// payload and no links.
func FuzzStore(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 4, 0, 4, 1, 1, 1, 4, 2, 9, 2, 3, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s slab.Store[payload]
		var lists [2]slab.List
		models := [2]*list.List{list.New(), list.New()}
		elems := map[int32]*list.Element{} // live node → its model element
		where := map[int32]int{}           // live node → the list it is on
		var live, removed []int32          // removed: last-removed last
		nextID := 0

		alloc := func() int32 {
			nextID++
			i := s.Alloc(payload{id: nextID})
			if n := len(removed); n > 0 {
				if want := removed[n-1]; i != want {
					t.Fatalf("Alloc reused node %d, want last removed %d", i, want)
				}
				removed = removed[:n-1]
			}
			if i == slab.Nil || elems[i] != nil {
				t.Fatalf("Alloc returned node %d, which is nil or live", i)
			}
			if got := *s.At(i); got != (payload{id: nextID}) {
				t.Fatalf("new node %d holds %+v, want only id %d", i, got, nextID)
			}
			if s.Next(i) != slab.Nil || s.Prev(i) != slab.Nil {
				t.Fatalf("new node %d is still linked", i)
			}
			s.At(i).marked = true
			live = append(live, i)
			return i
		}
		drop := func(n int32) {
			for j, i := range live {
				if i == n {
					live = append(live[:j], live[j+1:]...)
					return
				}
			}
		}

		for step := 0; step+1 < len(data); step += 2 {
			op, arg := data[step]%5, int(data[step+1])
			k := arg & 1
			l, m := &lists[k], models[k]
			switch op {
			case 0: // insert at the front
				i := alloc()
				s.InsertAfter(l, slab.Nil, i)
				elems[i], where[i] = m.PushFront(i), k
			case 1: // insert at the tail
				i := alloc()
				s.PushBack(l, i)
				elems[i], where[i] = m.PushBack(i), k
			case 2, 3, 4: // insert after, move, or remove a live node
				if len(live) == 0 {
					continue
				}
				at := live[arg%len(live)]
				ak := where[at]
				switch op {
				case 2:
					i := alloc()
					s.InsertAfter(&lists[ak], at, i)
					elems[i], where[i] = models[ak].InsertAfter(i, elems[at]), ak
				case 3:
					s.Unlink(&lists[ak], at)
					models[ak].Remove(elems[at])
					s.PushBack(l, at)
					elems[at], where[at] = m.PushBack(at), k
				case 4:
					s.Remove(&lists[ak], at)
					models[ak].Remove(elems[at])
					delete(elems, at)
					delete(where, at)
					drop(at)
					removed = append(removed, at)
				}
			}
			for k := range lists {
				checkList(t, &s, &lists[k], models[k])
			}
			if s.Size() != len(live)+len(removed) || s.Removed() != len(removed) {
				t.Fatalf("step %d: Size %d, Removed %d; want %d live + %d removed",
					step, s.Size(), s.Removed(), len(live), len(removed))
			}
		}
	})
}

// checkList requires l to hold model's nodes, in order from both ends.
func checkList(t *testing.T, s *slab.Store[payload], l *slab.List, model *list.List) {
	t.Helper()
	if l.Len() != model.Len() {
		t.Fatalf("Len %d, model %d", l.Len(), model.Len())
	}
	i := l.Head()
	for e := model.Front(); e != nil; e = e.Next() {
		if i != e.Value.(int32) || !s.At(i).marked {
			t.Fatalf("forward walk: node %d, model %d", i, e.Value)
		}
		i = s.Next(i)
	}
	if i != slab.Nil {
		t.Fatalf("forward walk runs past the model to node %d", i)
	}
	i = l.Tail()
	for e := model.Back(); e != nil; e = e.Prev() {
		if i != e.Value.(int32) {
			t.Fatalf("backward walk: node %d, model %d", i, e.Value)
		}
		i = s.Prev(i)
	}
	if i != slab.Nil {
		t.Fatalf("backward walk runs past the model to node %d", i)
	}
}
