package policy

import (
	"math/bits"

	"hpe/internal/addrspace"
	"hpe/internal/pagetable"
)

// SetLRU is an ablation policy, not part of the paper's comparison set: LRU
// managed at page-set granularity, with none of HPE's partitions,
// classification, or dynamic adjustment. A touch to any page refreshes the
// whole set; the victim is the LRU set's lowest-addressed resident page,
// drained one page per eviction exactly as HPE drains its victims.
//
// Comparing SetLRU against page-level LRU and against HPE separates the two
// ingredients of HPE's win: how much comes merely from coarser (set-level)
// recency, and how much from the old/middle/new machinery on top.
type SetLRU struct {
	geometry addrspace.Geometry
	chain    *recencyList             // of set-ids encoded as PageID keys; head = LRU
	resident *pagetable.Table[uint32] // set (as a key) → resident-page mask
}

// NewSetLRU returns a set-granularity LRU over the given geometry.
func NewSetLRU(g addrspace.Geometry) *SetLRU {
	return &SetLRU{
		geometry: g,
		chain:    newRecencyList(),
		resident: pagetable.New[uint32](),
	}
}

// Name implements Policy.
func (s *SetLRU) Name() string { return "SetLRU" }

// key encodes a SetID as the recencyList's PageID key space.
func key(id addrspace.SetID) addrspace.PageID { return addrspace.PageID(id) }

func (s *SetLRU) touch(id addrspace.SetID) {
	if !s.chain.touch(key(id)) {
		s.chain.pushMRU(key(id))
	}
}

// OnWalkHit implements Policy: refresh the whole set.
func (s *SetLRU) OnWalkHit(p addrspace.PageID, seq int) {
	id := s.geometry.SetOf(p)
	if _, ok := s.resident.Get(key(id)); ok {
		s.touch(id)
	}
}

// OnFault implements Policy: faults refresh recency too.
func (s *SetLRU) OnFault(p addrspace.PageID, seq int) {
	s.touch(s.geometry.SetOf(p))
}

// OnMapped implements Policy: mark the page resident in its set.
func (s *SetLRU) OnMapped(p addrspace.PageID, seq int) {
	id := s.geometry.SetOf(p)
	mask, _ := s.resident.Get(key(id))
	s.resident.Put(key(id), mask|1<<uint(s.geometry.Offset(p)))
	s.touch(id)
}

// SelectVictim implements Policy: the LRU set's lowest resident page.
func (s *SetLRU) SelectVictim() addrspace.PageID {
	for i := s.chain.front(); i != nilNode; i = s.chain.next(i) {
		k := s.chain.page(i)
		if mask, _ := s.resident.Get(k); mask != 0 {
			return s.geometry.PageAt(addrspace.SetID(k), bits.TrailingZeros32(mask))
		}
	}
	panic("policy: SetLRU.SelectVictim with no resident pages")
}

// OnEvicted implements Policy: clear the page; drop the set when drained.
func (s *SetLRU) OnEvicted(p addrspace.PageID) {
	id := s.geometry.SetOf(p)
	mask, ok := s.resident.Get(key(id))
	if !ok {
		return
	}
	mask &^= 1 << uint(s.geometry.Offset(p))
	if mask == 0 {
		s.resident.Delete(key(id))
		s.chain.remove(key(id))
		return
	}
	s.resident.Put(key(id), mask)
}

// Sets returns the number of tracked sets (for tests).
func (s *SetLRU) Sets() int { return s.resident.Len() }
