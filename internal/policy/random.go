package policy

import (
	"math/rand"

	"hpe/internal/addrspace"
)

// Random evicts a uniformly random resident page. Zheng et al. showed random
// to be competitive with LRU for many UVM workloads; the paper corroborates
// that except on Types IV and VI.
type Random struct {
	rng   *rand.Rand
	pages []addrspace.PageID
	pos   map[addrspace.PageID]int
}

// NewRandom returns a Random policy with a deterministic seed.
func NewRandom(seed int64) *Random {
	return &Random{
		rng: rand.New(rand.NewSource(seed)),
		pos: make(map[addrspace.PageID]int),
	}
}

// Name implements Policy.
func (r *Random) Name() string { return "Random" }

// OnWalkHit implements Policy: random ignores reference history.
func (r *Random) OnWalkHit(p addrspace.PageID, seq int) {}

// OnFault implements Policy.
func (r *Random) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy: track the resident set.
func (r *Random) OnMapped(p addrspace.PageID, seq int) {
	r.pos[p] = len(r.pages)
	r.pages = append(r.pages, p)
}

// SelectVictim implements Policy: uniform over resident pages.
func (r *Random) SelectVictim() addrspace.PageID {
	if len(r.pages) == 0 {
		panic("policy: Random.SelectVictim with no resident pages")
	}
	return r.pages[r.rng.Intn(len(r.pages))]
}

// OnEvicted implements Policy: swap-remove from the resident slice.
func (r *Random) OnEvicted(p addrspace.PageID) {
	i, ok := r.pos[p]
	if !ok {
		return
	}
	last := len(r.pages) - 1
	r.pages[i] = r.pages[last]
	r.pos[r.pages[i]] = i
	r.pages = r.pages[:last]
	delete(r.pos, p)
}

// Len returns the number of tracked resident pages.
func (r *Random) Len() int { return len(r.pages) }

// LFU evicts the least-frequently-used resident page (ties broken by least
// recency). The paper's related-work section observes that frequency alone
// is not enough for unified memory; LFU is here to demonstrate that.
type LFU struct {
	counts map[addrspace.PageID]uint64
	chain  *recencyList // recency order for tie-breaks; head = LRU
}

// NewLFU returns an empty LFU policy.
func NewLFU() *LFU {
	return &LFU{counts: make(map[addrspace.PageID]uint64), chain: newRecencyList()}
}

// Name implements Policy.
func (l *LFU) Name() string { return "LFU" }

// OnWalkHit implements Policy.
func (l *LFU) OnWalkHit(p addrspace.PageID, seq int) {
	if l.chain.contains(p) {
		l.counts[p]++
		l.chain.touch(p)
	}
}

// OnFault implements Policy.
func (l *LFU) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy.
func (l *LFU) OnMapped(p addrspace.PageID, seq int) {
	l.counts[p] = 1
	l.chain.pushMRU(p)
}

// SelectVictim implements Policy: minimum count, least recent among ties.
// O(resident) scan — LFU is a reference baseline, not a production policy.
func (l *LFU) SelectVictim() addrspace.PageID {
	var victim addrspace.PageID
	best := uint64(0)
	found := false
	for n := l.chain.head; n != nil; n = n.next {
		c := l.counts[n.page]
		if !found || c < best {
			victim, best, found = n.page, c, true
		}
	}
	if !found {
		panic("policy: LFU.SelectVictim with no resident pages")
	}
	return victim
}

// OnEvicted implements Policy.
func (l *LFU) OnEvicted(p addrspace.PageID) {
	l.chain.remove(p)
	delete(l.counts, p)
}
