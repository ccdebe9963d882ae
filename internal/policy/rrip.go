package policy

import (
	"fmt"

	"hpe/internal/addrspace"
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

type rripEntry struct {
	page  addrspace.PageID
	rrpv  uint8
	delay uint64 // global page-fault number at insertion
	valid bool
}

// RRIP is the paper's enhanced RRIP-FP (frequency priority) policy: an M-bit
// RRPV per page, decremented on hit; eviction scans CLOCK-style for a page
// with the distant prediction whose delay requirement is met, aging all
// pages when none qualifies.
type RRIP struct {
	cfg        RRIPConfig
	maxRRPV    uint8
	ring       []rripEntry
	index      map[addrspace.PageID]int
	freeSlots  []int
	faultCount uint64
}

// NewRRIP returns an empty RRIP policy with the given configuration.
func NewRRIP(cfg RRIPConfig) *RRIP {
	if cfg.MBits == 0 || cfg.MBits > 8 {
		panic(fmt.Sprintf("policy: RRIP MBits %d out of range [1,8]", cfg.MBits))
	}
	return &RRIP{
		cfg:     cfg,
		maxRRPV: uint8(1<<cfg.MBits - 1),
		index:   make(map[addrspace.PageID]int),
	}
}

// Name implements Policy.
func (r *RRIP) Name() string { return "RRIP" }

// OnWalkHit implements Policy: frequency priority decrements RRPV.
func (r *RRIP) OnWalkHit(p addrspace.PageID, seq int) {
	if i, ok := r.index[p]; ok && r.ring[i].rrpv > 0 {
		r.ring[i].rrpv--
	}
}

// OnFault implements Policy: advance the global fault counter.
func (r *RRIP) OnFault(p addrspace.PageID, seq int) { r.faultCount++ }

// OnMapped implements Policy: insert with the configured prediction.
func (r *RRIP) OnMapped(p addrspace.PageID, seq int) {
	rrpv := r.maxRRPV - 1
	if r.cfg.InsertDistant {
		rrpv = r.maxRRPV
	}
	e := rripEntry{page: p, rrpv: rrpv, delay: r.faultCount, valid: true}
	// Reuse a freed slot when one exists; otherwise append.
	if n := len(r.freeSlots); n > 0 {
		i := r.freeSlots[n-1]
		r.freeSlots = r.freeSlots[:n-1]
		r.ring[i] = e
		r.index[p] = i
		return
	}
	r.index[p] = len(r.ring)
	r.ring = append(r.ring, e)
}

// eligible reports whether the entry meets the delay requirement: the margin
// between the current fault number and the page's delay field is at least
// the threshold.
func (r *RRIP) eligible(e *rripEntry) bool {
	return r.faultCount-e.delay >= r.cfg.DelayThreshold
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
func (r *RRIP) SelectVictim() addrspace.PageID {
	if len(r.index) == 0 {
		panic("policy: RRIP.SelectVictim with no resident pages")
	}
	for round := uint8(0); round <= r.maxRRPV; round++ {
		if p, ok := r.scan(true); ok {
			return p
		}
		// Age: increment every RRPV below max.
		for i := range r.ring {
			if r.ring[i].valid && r.ring[i].rrpv < r.maxRRPV {
				r.ring[i].rrpv++
			}
		}
	}
	// All RRPVs are max but nothing satisfies the delay requirement: relax it.
	if p, ok := r.scan(false); ok {
		return p
	}
	panic("policy: RRIP.SelectVictim scan failed despite resident pages")
}

// scan sweeps the ring once from slot 0 looking for a distant-prediction
// entry; withDelay additionally requires the delay margin.
func (r *RRIP) scan(withDelay bool) (addrspace.PageID, bool) {
	for i := range r.ring {
		e := &r.ring[i]
		if !e.valid || e.rrpv != r.maxRRPV {
			continue
		}
		if withDelay && !r.eligible(e) {
			continue
		}
		return e.page, true
	}
	return 0, false
}

// OnEvicted implements Policy.
func (r *RRIP) OnEvicted(p addrspace.PageID) {
	if i, ok := r.index[p]; ok {
		r.ring[i].valid = false
		r.freeSlots = append(r.freeSlots, i)
		delete(r.index, p)
	}
}

// Len returns the number of tracked resident pages.
func (r *RRIP) Len() int { return len(r.index) }
