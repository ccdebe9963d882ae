package policy

import (
	"hpe/internal/addrspace"
	"hpe/internal/pagetable"
	"hpe/internal/slab"
)

// Clock is the classic CLOCK algorithm — the one-bit LRU approximation the
// paper's related-work section names as what real kernels deploy instead of
// true LRU. A hand sweeps the resident ring; referenced pages get a second
// chance (bit cleared), unreferenced pages are victims. It inherits LRU's
// thrashing pathology, which is exactly why the paper discusses CLOCK-Pro.
type Clock struct {
	ring  []clockEntry
	index *pagetable.Table[int32] // page → ring slot
	free  []int32
	hand  int
}

type clockEntry struct {
	page  addrspace.PageID
	ref   bool
	valid bool
}

// NewClock returns an empty CLOCK policy.
func NewClock() *Clock {
	return &Clock{index: pagetable.New[int32]()}
}

// Name implements Policy.
func (c *Clock) Name() string { return "CLOCK" }

// OnWalkHit implements Policy: set the reference bit.
func (c *Clock) OnWalkHit(p addrspace.PageID, seq int) {
	if i, ok := c.index.Get(p); ok {
		c.ring[i].ref = true
	}
}

// OnFault implements Policy.
func (c *Clock) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy: insert with the reference bit set (it is being
// used right now).
func (c *Clock) OnMapped(p addrspace.PageID, seq int) {
	e := clockEntry{page: p, ref: true, valid: true}
	if n := len(c.free); n > 0 {
		i := c.free[n-1]
		c.free = c.free[:n-1]
		c.ring[i] = e
		c.index.Put(p, i)
		return
	}
	c.index.Put(p, int32(len(c.ring)))
	c.ring = append(c.ring, e)
}

// SelectVictim implements Policy: sweep the hand, granting second chances.
func (c *Clock) SelectVictim() addrspace.PageID {
	if c.index.Len() == 0 {
		panic("policy: CLOCK.SelectVictim with no resident pages")
	}
	n := len(c.ring)
	// At most two revolutions: the first may clear every bit, the second
	// must find a victim.
	for sweep := 0; sweep < 2*n+1; sweep++ {
		e := &c.ring[c.hand%n]
		c.hand = (c.hand + 1) % n
		if !e.valid {
			continue
		}
		if e.ref {
			e.ref = false
			continue
		}
		return e.page
	}
	panic("policy: CLOCK hand failed to find a victim")
}

// OnEvicted implements Policy.
func (c *Clock) OnEvicted(p addrspace.PageID) {
	if i, ok := c.index.Get(p); ok {
		c.ring[i].valid = false
		c.free = append(c.free, i)
		c.index.Delete(p)
	}
}

// Len returns the number of tracked resident pages.
func (c *Clock) Len() int { return c.index.Len() }

// NRU is Not-Recently-Used: evict any page whose reference bit is clear,
// scanning in arrival order; when every page is referenced, clear all bits
// and take the oldest. (The classical scheme also consults a dirty bit; the
// simulator has no write tracking, so this is the reference-bit-only
// variant.) Like CLOCK, it approximates LRU and shares its weaknesses.
type NRU struct {
	chain *recencyList[nruPage] // arrival order: head = oldest
}

// nruPage is one NRU chain node: the page and its reference bit.
type nruPage struct {
	page addrspace.PageID
	ref  bool
}

// NewNRU returns an empty NRU policy.
func NewNRU() *NRU {
	return &NRU{chain: newRecencyList[nruPage]()}
}

// Name implements Policy.
func (n *NRU) Name() string { return "NRU" }

// OnWalkHit implements Policy.
func (n *NRU) OnWalkHit(p addrspace.PageID, seq int) {
	if e := n.chain.get(p); e != nil {
		e.ref = true
	}
}

// OnFault implements Policy.
func (n *NRU) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy.
func (n *NRU) OnMapped(p addrspace.PageID, seq int) {
	n.chain.pushMRU(p, nruPage{page: p, ref: true})
}

// SelectVictim implements Policy.
func (n *NRU) SelectVictim() addrspace.PageID {
	if n.chain.len() == 0 {
		panic("policy: NRU.SelectVictim with no resident pages")
	}
	c := n.chain
	for i := c.order.Head(); i != slab.Nil; i = c.nodes.Next(i) {
		if e := c.nodes.At(i); !e.ref {
			return e.page
		}
	}
	// Everyone was recently used: clear the epoch and take the oldest.
	for i := c.order.Head(); i != slab.Nil; i = c.nodes.Next(i) {
		c.nodes.At(i).ref = false
	}
	return c.lru().page
}

// OnEvicted implements Policy.
func (n *NRU) OnEvicted(p addrspace.PageID) {
	n.chain.remove(p)
}
