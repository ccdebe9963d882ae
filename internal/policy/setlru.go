package policy

import (
	"math/bits"

	"hpe/internal/addrspace"
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
	chain    *recencyList // of set-ids encoded as PageID keys; head = LRU
	resident map[addrspace.SetID]uint32
}

// NewSetLRU returns a set-granularity LRU over the given geometry.
func NewSetLRU(g addrspace.Geometry) *SetLRU {
	return &SetLRU{
		geometry: g,
		chain:    newRecencyList(),
		resident: make(map[addrspace.SetID]uint32),
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
	if _, ok := s.resident[id]; ok {
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
	s.resident[id] |= 1 << uint(s.geometry.Offset(p))
	s.touch(id)
}

// SelectVictim implements Policy: the LRU set's lowest resident page.
func (s *SetLRU) SelectVictim() addrspace.PageID {
	for n := s.chain.head; n != nil; n = n.next {
		id := addrspace.SetID(n.page)
		if mask := s.resident[id]; mask != 0 {
			return s.geometry.PageAt(id, bits.TrailingZeros32(mask))
		}
	}
	panic("policy: SetLRU.SelectVictim with no resident pages")
}

// OnEvicted implements Policy: clear the page; drop the set when drained.
func (s *SetLRU) OnEvicted(p addrspace.PageID) {
	id := s.geometry.SetOf(p)
	mask, ok := s.resident[id]
	if !ok {
		return
	}
	mask &^= 1 << uint(s.geometry.Offset(p))
	if mask == 0 {
		delete(s.resident, id)
		s.chain.remove(key(id))
		return
	}
	s.resident[id] = mask
}

// Sets returns the number of tracked sets (for tests).
func (s *SetLRU) Sets() int { return len(s.resident) }
