package policy

import (
	"math/bits"

	"hpe/internal/addrspace"
	"hpe/internal/slab"
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
	chain    *recencyList[setPages] // keyed by set-ids encoded as PageIDs; head = LRU
}

// setPages is one SetLRU chain node: the set and its resident-page mask.
type setPages struct {
	set      addrspace.SetID
	resident uint32
}

// NewSetLRU returns a set-granularity LRU over the given geometry.
func NewSetLRU(g addrspace.Geometry) *SetLRU {
	return &SetLRU{geometry: g, chain: newRecencyList[setPages]()}
}

// Name implements Policy.
func (s *SetLRU) Name() string { return "SetLRU" }

// key encodes a SetID as the recencyList's PageID key space.
func key(id addrspace.SetID) addrspace.PageID { return addrspace.PageID(id) }

// touch moves the set to the MRU position, adding it with no resident pages
// if it is absent, and returns its node.
func (s *SetLRU) touch(id addrspace.SetID) *setPages {
	if !s.chain.touch(key(id)) {
		s.chain.pushMRU(key(id), setPages{set: id})
	}
	return s.chain.nodes.At(s.chain.order.Tail())
}

// OnWalkHit implements Policy: refresh the whole set.
func (s *SetLRU) OnWalkHit(p addrspace.PageID, seq int) {
	id := s.geometry.SetOf(p)
	if e := s.chain.get(key(id)); e != nil && e.resident != 0 {
		s.touch(id)
	}
}

// OnFault implements Policy: faults refresh recency too.
func (s *SetLRU) OnFault(p addrspace.PageID, seq int) {
	s.touch(s.geometry.SetOf(p))
}

// OnMapped implements Policy: mark the page resident in its set.
func (s *SetLRU) OnMapped(p addrspace.PageID, seq int) {
	s.touch(s.geometry.SetOf(p)).resident |= 1 << uint(s.geometry.Offset(p))
}

// SelectVictim implements Policy: the LRU set's lowest resident page.
func (s *SetLRU) SelectVictim() addrspace.PageID {
	c := s.chain
	for i := c.order.Head(); i != slab.Nil; i = c.nodes.Next(i) {
		if e := c.nodes.At(i); e.resident != 0 {
			return s.geometry.PageAt(e.set, bits.TrailingZeros32(e.resident))
		}
	}
	panic("policy: SetLRU.SelectVictim with no resident pages")
}

// OnEvicted implements Policy: clear the page; drop the set when drained.
func (s *SetLRU) OnEvicted(p addrspace.PageID) {
	id := s.geometry.SetOf(p)
	e := s.chain.get(key(id))
	if e == nil || e.resident == 0 {
		return
	}
	if e.resident &^= 1 << uint(s.geometry.Offset(p)); e.resident == 0 {
		s.chain.remove(key(id))
	}
}
