package policy

import (
	"math/rand"
	"testing"

	"hpe/internal/addrspace"
	"hpe/internal/trace"
)

// equivalencePages is the page pool of FuzzPolicyEquivalence: dense low
// pages from 0, pages on both sides of 64-page leaf edges, and sparse pages
// past 2^40 up to the top of the ID space, so the page tables see first
// touches, shared leaves and far-apart leaves. It is about three times the
// largest fuzzed capacity, so CLOCK-Pro's non-resident entries overflow
// their bound and ARC's ghost lists fill.
var equivalencePages = func() []addrspace.PageID {
	var ps []addrspace.PageID
	for i := 0; i < 48; i++ {
		ps = append(ps, addrspace.PageID(i))
	}
	for i := 1; i <= 8; i++ {
		ps = append(ps, addrspace.PageID(64*i-1), addrspace.PageID(64*i))
	}
	for i := 0; i < 24; i++ {
		ps = append(ps, addrspace.PageID(1<<40+i*4099))
	}
	return append(ps, 1<<41, 1<<52, 1<<62, 1<<63-1, 1<<63, 1<<64-2, 1<<64-1, 3<<40)
}()

// equivalenceOp is one decoded fuzz operation: a reference to page (shown
// to the policy on a hit only if visible, as the TLBs hide some), or an
// eviction outside a fault, of the policy's victim or, if forced, of the
// last referenced page.
type equivalenceOp struct {
	page    addrspace.PageID
	visible bool
	evict   bool
	forced  bool
}

func decodeEquivalenceOps(data []byte) []equivalenceOp {
	ops := make([]equivalenceOp, len(data))
	for i, b := range data {
		switch {
		case b >= 0xfc:
			ops[i] = equivalenceOp{evict: true, forced: true}
		case b >= 0xf8:
			ops[i] = equivalenceOp{evict: true}
		default:
			ops[i] = equivalenceOp{page: equivalencePages[int(b)%len(equivalencePages)], visible: b < 0xe8}
		}
	}
	return ops
}

// policyPair is a rewritten policy and its reference implementation.
type policyPair struct {
	name      string
	got, want Policy
}

// FuzzPolicyEquivalence drives one random hit/fault/evict sequence through
// every rewritten policy and its reference copy (reference_test.go), each
// pair against its own simulated memory, and requires identical victim
// sequences: the rewrites change the cost of victim selection, never the
// victim. The RRIP configuration comes from the input; the seed corpus
// covers the paper's two presets, MBits 1 and 8, and a delay threshold
// above capacity, which forces the relaxed scan.
func FuzzPolicyEquivalence(f *testing.F) {
	configs := []RRIPConfig{
		DefaultRRIPConfig(),
		ThrashingRRIPConfig(),
		{MBits: 1, InsertDistant: false, DelayThreshold: 3},
		{MBits: 8, InsertDistant: true, DelayThreshold: 5},
		{MBits: 2, InsertDistant: true, DelayThreshold: 1000},
	}
	for ci, cfg := range configs {
		for s := int64(1); s <= 6; s++ {
			rng := rand.New(rand.NewSource(s*10 + int64(ci)))
			ops := make([]byte, 2500)
			rng.Read(ops)
			capacity := uint8(rng.Intn(256))
			f.Add(uint8(cfg.MBits-1), cfg.InsertDistant, uint16(cfg.DelayThreshold), capacity, s, ops)
		}
	}
	f.Add(uint8(1), false, uint16(0), uint8(0), int64(0), []byte{})
	f.Fuzz(func(t *testing.T, mbits uint8, distant bool, delay uint16, capacity uint8, seed int64, data []byte) {
		cfg := RRIPConfig{MBits: 1 + uint(mbits%8), InsertDistant: distant, DelayThreshold: uint64(delay)}
		capPages := 1 + int(capacity%32)
		coldTarget := capPages * (1 + int(capacity>>5)) / 8 // m_c from 1/8 to all of memory
		ops := decodeEquivalenceOps(data)
		var refs []addrspace.PageID
		for _, op := range ops {
			if !op.evict {
				refs = append(refs, op.page)
			}
		}
		fi := trace.BuildFutureIndex(trace.New("equivalence", refs))
		geom := addrspace.DefaultGeometry()
		pairs := []policyPair{
			{"lru", NewLRU(), newRefLRU()},
			{"fifo", NewFIFO(), newRefFIFO()},
			{"random", NewRandom(seed), newRefRandom(seed)},
			{"lfu", NewLFU(), newRefLFU()},
			{"rrip", NewRRIP(cfg), newRefRRIP(cfg)},
			{"ideal", NewIdeal(fi), newRefIdeal(fi)},
			{"clock", NewClock(), newRefClock()},
			{"nru", NewNRU(), newRefNRU()},
			{"clockpro", NewClockPro(capPages, coldTarget), newRefClockPro(capPages, coldTarget)},
			{"setlru", NewSetLRU(geom), newRefSetLRU(geom)},
		}
		for _, pr := range pairs {
			replayPair(t, pr, ops, capPages)
		}
	})
}

// replayPair runs ops through both policies of pr against a memory of
// capPages, failing at the first differing victim or resident count.
func replayPair(t *testing.T, pr policyPair, ops []equivalenceOp, capPages int) {
	t.Helper()
	resident := map[addrspace.PageID]bool{}
	unmap := func(v addrspace.PageID) {
		delete(resident, v)
		pr.got.OnEvicted(v)
		pr.want.OnEvicted(v)
	}
	evict := func(step int) {
		v, w := pr.got.SelectVictim(), pr.want.SelectVictim()
		if v != w {
			t.Fatalf("%s: op %d: victim %d, reference %d", pr.name, step, v, w)
		}
		if !resident[v] {
			t.Fatalf("%s: op %d: victim %d is not resident", pr.name, step, v)
		}
		unmap(v)
	}
	seq := 0
	var last addrspace.PageID
	for step, op := range ops {
		switch {
		case op.forced:
			if resident[last] {
				unmap(last)
			}
			continue
		case op.evict:
			if len(resident) > 0 {
				evict(step)
			}
			continue
		case resident[op.page]:
			if op.visible {
				pr.got.OnWalkHit(op.page, seq)
				pr.want.OnWalkHit(op.page, seq)
			}
		default:
			pr.got.OnFault(op.page, seq)
			pr.want.OnFault(op.page, seq)
			if len(resident) >= capPages {
				evict(step)
			}
			resident[op.page] = true
			pr.got.OnMapped(op.page, seq)
			pr.want.OnMapped(op.page, seq)
		}
		last = op.page
		seq++
		if got, want := policyLen(pr.got), policyLen(pr.want); got != want {
			t.Fatalf("%s: op %d: Len %d, reference %d", pr.name, step, got, want)
		}
	}
	if cp, ok := pr.got.(*ClockPro); ok {
		h, c, n := cp.Counts()
		rh, rc, rn := pr.want.(*refClockPro).Counts()
		if h != rh || c != rc || n != rn {
			t.Fatalf("clockpro: counts (%d,%d,%d), reference (%d,%d,%d)", h, c, n, rh, rc, rn)
		}
	}
}

// policyLen returns a policy's resident count, or -1 if it does not report one.
func policyLen(p Policy) int {
	if l, ok := p.(interface{ Len() int }); ok {
		return l.Len()
	}
	return -1
}
