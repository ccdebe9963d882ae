package policy

import (
	"fmt"

	"hpe/internal/addrspace"
	"hpe/internal/pagetable"
)

// RRIPConfig parameterises the enhanced RRIP policy exactly as the paper
// configures it (§V-B "Compared to Other Policies").
type RRIPConfig struct {
	// MBits is the width of the re-reference prediction value register.
	// 2 bits gives RRPV ∈ [0,3].
	MBits uint
	// InsertDistant inserts new pages with the distant re-reference
	// prediction (RRPV = max). The paper enables this for Type II
	// applications; all others insert with the long prediction (max-1).
	InsertDistant bool
	// DelayThreshold is the paper's anti-instant-thrashing enhancement: a
	// page is only an eviction candidate once at least this many global page
	// faults have occurred since its insertion. 128 for Type II apps
	// (together with distant insertion), 0 otherwise.
	DelayThreshold uint64
}

// DefaultRRIPConfig returns the paper's configuration for non-Type-II
// applications: long insertion, no delay requirement.
func DefaultRRIPConfig() RRIPConfig {
	return RRIPConfig{MBits: 2, InsertDistant: false, DelayThreshold: 0}
}

// ThrashingRRIPConfig returns the paper's configuration for Type II
// applications: distant insertion and a delay threshold of 128 faults.
func ThrashingRRIPConfig() RRIPConfig {
	return RRIPConfig{MBits: 2, InsertDistant: true, DelayThreshold: 128}
}

// rripSlot is one ring slot. A slot's RRPV is min(max, key+age), so an
// aging round raises every RRPV by bumping RRIP.age alone.
type rripSlot struct {
	page  addrspace.PageID
	key   int64
	delay uint64 // global page-fault number at insertion
	stamp uint64 // insertion number, to spot stale young entries
}

// youngSlot is a slot inserted before it met the delay requirement.
type youngSlot struct {
	slot  int32
	stamp uint64
}

// RRIP is the paper's enhanced RRIP-FP (frequency priority) policy: an M-bit
// RRPV per page, decremented on hit; eviction scans CLOCK-style for a page
// with the distant prediction whose delay requirement is met, aging all
// pages when none qualifies.
//
// The scan is kept as sets of slots rather than a walk of the ring. levels
// holds one bitset per RRPV below max, indexed by key mod max; atMax holds
// the slots at max, and eligible the slots that meet the delay requirement.
// An aging round moves the level about to reach max into atMax (one bitset
// OR) and bumps age, which re-labels every other level at once. A hit moves
// one bit between levels. Slots become eligible in insertion order, because
// the fault count only grows, so a FIFO of young slots releases them as the
// count passes their margin.
type RRIP struct {
	cfg        RRIPConfig
	maxRRPV    uint8
	ring       []rripSlot
	index      *pagetable.Table[int32] // page → slot
	freeSlots  []int32
	faultCount uint64
	stamps     uint64

	age       int64
	levels    []bitset // levels[key mod max]: slots with RRPV < max
	atMax     bitset
	eligible  bitset
	young     []youngSlot // not yet eligible, oldest first from youngHead
	youngHead int
}

// NewRRIP returns an empty RRIP policy with the given configuration.
func NewRRIP(cfg RRIPConfig) *RRIP {
	if cfg.MBits == 0 || cfg.MBits > 8 {
		panic(fmt.Sprintf("policy: RRIP MBits %d out of range [1,8]", cfg.MBits))
	}
	maxRRPV := uint8(1<<cfg.MBits - 1)
	return &RRIP{
		cfg:     cfg,
		maxRRPV: maxRRPV,
		index:   pagetable.New[int32](),
		levels:  make([]bitset, maxRRPV),
	}
}

// Name implements Policy.
func (r *RRIP) Name() string { return "RRIP" }

// rrpv returns the RRPV of a slot with the given key.
func (r *RRIP) rrpv(key int64) int64 { return min(int64(r.maxRRPV), key+r.age) }

// level returns the bitset holding slots with the given key below max.
func (r *RRIP) level(key int64) bitset {
	m := int64(r.maxRRPV)
	return r.levels[(key%m+m)%m]
}

// slots returns the bitset holding slots with the given key: atMax at max,
// else the key's level.
func (r *RRIP) slots(key int64) bitset {
	if r.rrpv(key) == int64(r.maxRRPV) {
		return r.atMax
	}
	return r.level(key)
}

// OnWalkHit implements Policy: frequency priority decrements RRPV.
func (r *RRIP) OnWalkHit(p addrspace.PageID, seq int) {
	i, ok := r.index.Get(p)
	if !ok {
		return
	}
	s := &r.ring[i]
	v := r.rrpv(s.key)
	if v == 0 {
		return
	}
	r.slots(s.key).clear(i)
	s.key = v - 1 - r.age
	r.slots(s.key).set(i)
}

// OnFault implements Policy: advance the global fault counter.
func (r *RRIP) OnFault(p addrspace.PageID, seq int) { r.faultCount++ }

// OnMapped implements Policy: insert with the configured prediction.
func (r *RRIP) OnMapped(p addrspace.PageID, seq int) {
	rrpv := r.maxRRPV - 1
	if r.cfg.InsertDistant {
		rrpv = r.maxRRPV
	}
	r.stamps++
	e := rripSlot{page: p, key: int64(rrpv) - r.age, delay: r.faultCount, stamp: r.stamps}
	// Reuse a freed slot when one exists; otherwise append.
	var i int32
	if n := len(r.freeSlots); n > 0 {
		i = r.freeSlots[n-1]
		r.freeSlots = r.freeSlots[:n-1]
		r.ring[i] = e
	} else {
		i = int32(len(r.ring))
		r.ring = append(r.ring, e)
		r.grow()
	}
	r.index.Put(p, i)
	r.slots(e.key).set(i)
	if r.cfg.DelayThreshold == 0 {
		r.eligible.set(i)
	} else {
		r.young = append(r.young, youngSlot{slot: i, stamp: e.stamp})
	}
}

// grow widens every bitset to cover the ring.
func (r *RRIP) grow() {
	words := (len(r.ring) + 63) / 64
	if len(r.atMax) == words {
		return
	}
	for l := range r.levels {
		r.levels[l] = append(r.levels[l], 0)
	}
	r.atMax = append(r.atMax, 0)
	r.eligible = append(r.eligible, 0)
}

// ripen marks eligible every young slot whose delay margin is now met: the
// margin between the current fault number and the page's delay field is at
// least the threshold. Entries for slots evicted since are dropped.
func (r *RRIP) ripen() {
	for r.youngHead < len(r.young) {
		y := r.young[r.youngHead]
		s := &r.ring[y.slot]
		if s.stamp == y.stamp {
			if r.faultCount-s.delay < r.cfg.DelayThreshold {
				break
			}
			r.eligible.set(y.slot)
		}
		r.youngHead++
	}
	// Slide the live tail to the front once the consumed head dominates.
	if r.youngHead > 64 && 2*r.youngHead > len(r.young) {
		n := copy(r.young, r.young[r.youngHead:])
		r.young = r.young[:n]
		r.youngHead = 0
	}
}

// ageBy runs k aging rounds: each moves the level one below max into atMax
// and raises every other RRPV by one.
func (r *RRIP) ageBy(k int64) {
	for ; k > 0; k-- {
		top := r.level(int64(r.maxRRPV) - 1 - r.age)
		r.atMax.or(top)
		top.reset()
		r.age++
	}
}

// SelectVictim implements Policy. Like SRRIP, the scan starts from slot 0
// every time (not from a persistent hand) and takes the first valid entry
// with RRPV == max that meets the delay requirement; if a full sweep finds
// none, every RRPV is incremented (aging) and the scan repeats. If aging
// alone cannot produce a candidate (every page is too young), the delay
// requirement is relaxed — the driver must evict something.
//
// The fixed-start scan matters: together with slot reuse it concentrates
// the churn in low slots, which is what lets the delay field retain part of
// the working set on thrashing patterns instead of degenerating to LRU.
//
// The sets give the same slot without the sweeps. The rounds stop at the
// first one in which an eligible slot is at max: that is after max−v rounds,
// where v is the highest RRPV among eligible slots, and the scan then takes
// the lowest eligible slot at max. With no eligible slot every RRPV ends at
// max and the relaxed scan takes the lowest slot.
func (r *RRIP) SelectVictim() addrspace.PageID {
	if r.index.Len() == 0 {
		panic("policy: RRIP.SelectVictim with no resident pages")
	}
	r.ripen()
	top := int64(r.maxRRPV)
	v := top
	for v >= 0 && !r.slots(v-r.age).intersects(r.eligible) {
		v--
	}
	if v < 0 {
		// All RRPVs are max but nothing satisfies the delay requirement:
		// relax it.
		r.ageBy(top)
		return r.ring[r.atMax.first()].page
	}
	r.ageBy(top - v)
	return r.ring[r.atMax.firstAnd(r.eligible)].page
}

// OnEvicted implements Policy.
func (r *RRIP) OnEvicted(p addrspace.PageID) {
	i, ok := r.index.Get(p)
	if !ok {
		return
	}
	r.slots(r.ring[i].key).clear(i)
	r.eligible.clear(i)
	r.ring[i].stamp = 0
	r.freeSlots = append(r.freeSlots, i)
	r.index.Delete(p)
}

// Len returns the number of tracked resident pages.
func (r *RRIP) Len() int { return r.index.Len() }
