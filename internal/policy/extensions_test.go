package policy

import (
	"testing"

	"hpe/internal/addrspace"
	"hpe/internal/slab"
	"hpe/internal/trace"
)

// --- CLOCK ---------------------------------------------------------------------

func TestClockSecondChance(t *testing.T) {
	c := NewClock()
	for i := 1; i <= 3; i++ {
		c.OnMapped(addrspace.PageID(i), i)
	}
	// All ref bits set at insertion: the first sweep clears 1,2,3 and the
	// second finds page 1.
	if v := c.SelectVictim(); v != 1 {
		t.Fatalf("victim = %v, want 1", v)
	}
	c.OnEvicted(1)
	// Page 2's bit is already clear; the hand sits past slot 0.
	if v := c.SelectVictim(); v != 2 {
		t.Fatalf("victim = %v, want 2", v)
	}
	// A hit on 3 grants it a second chance over... 2 already cleared.
	c.OnWalkHit(3, 9)
	c.OnEvicted(2)
	c.OnMapped(4, 10)
	// Ring: slot0=4(ref), slot1=(2 freed→4? slot reuse), slot2=3(ref).
	v := c.SelectVictim()
	if v != 3 && v != 4 {
		t.Fatalf("victim = %v, want a resident page", v)
	}
}

func TestClockSlotReuse(t *testing.T) {
	c := NewClock()
	for i := 0; i < 50; i++ {
		c.OnMapped(addrspace.PageID(i), i)
	}
	for i := 0; i < 25; i++ {
		c.OnEvicted(addrspace.PageID(i))
	}
	for i := 50; i < 75; i++ {
		c.OnMapped(addrspace.PageID(i), i)
	}
	if c.Len() != 50 || len(c.ring) != 50 {
		t.Fatalf("len=%d ring=%d, want 50/50", c.Len(), len(c.ring))
	}
}

func TestClockApproximatesLRU(t *testing.T) {
	// On a cyclic pattern CLOCK thrashes exactly like LRU.
	tr := cyclicTrace(20, 4)
	clock := Replay(tr, NewClock(), 15)
	lru := Replay(tr, NewLRU(), 15)
	if clock.Faults != lru.Faults {
		t.Fatalf("CLOCK %d faults vs LRU %d on cyclic pattern", clock.Faults, lru.Faults)
	}
}

// --- NRU -----------------------------------------------------------------------

func TestNRUEvictsUnreferenced(t *testing.T) {
	n := NewNRU()
	n.OnMapped(1, 0)
	n.OnMapped(2, 1)
	// Everything referenced: epoch clears, oldest (1) evicted.
	if v := n.SelectVictim(); v != 1 {
		t.Fatalf("victim = %v, want 1", v)
	}
	n.OnEvicted(1)
	n.OnMapped(3, 2) // ref=true
	// Page 2's bit was cleared by the epoch reset; 3 is referenced.
	if v := n.SelectVictim(); v != 2 {
		t.Fatalf("victim = %v, want 2 (unreferenced)", v)
	}
	n.OnWalkHit(2, 3) // re-reference 2
	n.OnEvicted(3)
	n.OnMapped(4, 4)
	if v := n.SelectVictim(); v == 3 {
		t.Fatal("NRU selected a non-resident page")
	}
}

// --- ARC -----------------------------------------------------------------------

func TestARCHitPromotesToT2(t *testing.T) {
	a := NewARC(4)
	a.OnFault(1, 0)
	a.OnMapped(1, 0)
	if a.len(t1) != 1 || a.len(t2) != 0 {
		t.Fatalf("after cold insert: T1=%d T2=%d", a.len(t1), a.len(t2))
	}
	a.OnWalkHit(1, 1)
	if a.len(t1) != 0 || a.len(t2) != 1 {
		t.Fatalf("after hit: T1=%d T2=%d, want promotion to T2", a.len(t1), a.len(t2))
	}
}

func TestARCGhostHitAdaptsTarget(t *testing.T) {
	// Capacity 3. Build T1={1,3}, T2={2}: fault 1, 2; hit 2 (promotes to
	// T2); fault 3.
	a := NewARC(3)
	for i := 1; i <= 2; i++ {
		a.OnFault(addrspace.PageID(i), i)
		a.OnMapped(addrspace.PageID(i), i)
	}
	a.OnWalkHit(2, 2)
	a.OnFault(3, 3)
	a.OnMapped(3, 3)
	// Fault 4: memory full; T1 (2) > p (0) → evict T1 LRU = page 1 → B1.
	a.OnFault(4, 4)
	v := a.SelectVictim()
	if v != 1 {
		t.Fatalf("victim = %v, want 1 (T1 LRU)", v)
	}
	a.OnEvicted(v)
	a.OnMapped(4, 4)
	p0 := a.p
	if a.len(b1) != 1 {
		t.Fatalf("B1 = %d, want ghost of page 1 retained", a.len(b1))
	}
	// Refault page 1: B1 hit → p grows, page lands in T2.
	a.OnFault(1, 5)
	v = a.SelectVictim()
	a.OnEvicted(v)
	a.OnMapped(1, 5)
	if a.p <= p0 {
		t.Fatalf("p did not grow on B1 hit: %d -> %d", p0, a.p)
	}
	if a.len(t2) < 2 {
		t.Fatalf("ghost-hit page not inserted into T2 (T1=%d T2=%d)", a.len(t1), a.len(t2))
	}
}

func TestARCDirectoryBounded(t *testing.T) {
	capacity := 32
	a := NewARC(capacity)
	tr := randomTrace(20000, 500, 5)
	Replay(tr, a, capacity)
	n1, n2, g1, g2, p := a.len(t1), a.len(t2), a.len(b1), a.len(b2), a.p
	if n1+n2 > capacity {
		t.Fatalf("resident %d > capacity %d", n1+n2, capacity)
	}
	if n1+g1 > capacity {
		t.Fatalf("|T1|+|B1| = %d > capacity", n1+g1)
	}
	if n1+n2+g1+g2 > 2*capacity {
		t.Fatalf("directory %d > 2c", n1+n2+g1+g2)
	}
	if p < 0 || p > capacity {
		t.Fatalf("target p = %d out of [0, c]", p)
	}
}

func TestARCBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ARC with capacity 0 accepted")
		}
	}()
	NewARC(0)
}

// --- cross-checks across the extension policies ----------------------------------

func TestExtensionPoliciesReplayInvariants(t *testing.T) {
	tr := randomTrace(15000, 250, 77)
	capacity := 100
	for _, pol := range []Policy{NewClock(), NewNRU(), NewARC(capacity)} {
		res := Replay(tr, pol, capacity)
		if res.Hits+res.Faults != uint64(tr.Len()) {
			t.Errorf("%s: hits+faults = %d, want %d", pol.Name(), res.Hits+res.Faults, tr.Len())
		}
		if want := res.Faults - uint64(capacity); res.Evictions != want {
			t.Errorf("%s: evictions = %d, want %d", pol.Name(), res.Evictions, want)
		}
	}
}

func TestExtensionPoliciesNeverBeatIdeal(t *testing.T) {
	traces := []*trace.Trace{cyclicTrace(50, 5), randomTrace(20000, 200, 13)}
	for _, tr := range traces {
		capacity := tr.Footprint() * 3 / 4
		ideal := Replay(tr, NewIdeal(trace.BuildFutureIndex(tr)), capacity)
		for _, pol := range []Policy{NewClock(), NewNRU(), NewARC(capacity)} {
			got := Replay(tr, pol, capacity)
			if got.Faults < ideal.Faults {
				t.Errorf("%s: %s faulted %d < Ideal %d", tr.Name, pol.Name(), got.Faults, ideal.Faults)
			}
		}
	}
}

func TestARCAdaptsOnMixedWorkload(t *testing.T) {
	// A hot loop whose pages hit twice per pass (so T2 can capture them)
	// mixed with a cold scan: ARC protects the loop in T2 while the scan
	// churns T1; LRU lets the scan flush the loop. Note ARC cannot rescue a
	// loop that never hits while resident — bootstrap hits are required
	// (that is CLOCK-Pro/LIRS territory, and exactly why the paper compares
	// against CLOCK-Pro rather than ARC).
	var refs []addrspace.PageID
	for rep := 0; rep < 40; rep++ {
		for i := 0; i < 20; i++ { // hot loop, double-touched
			refs = append(refs, addrspace.PageID(i), addrspace.PageID(i))
		}
		for i := 0; i < 25; i++ { // cold scan segment
			refs = append(refs, addrspace.PageID(1000+rep*25+i))
		}
	}
	tr := plainTrace("mixed", refs)
	capacity := 40
	arc := Replay(tr, NewARC(capacity), capacity)
	lru := Replay(tr, NewLRU(), capacity)
	if arc.Faults >= lru.Faults {
		t.Fatalf("ARC %d faults >= LRU %d on loop+scan mix", arc.Faults, lru.Faults)
	}
}

func BenchmarkReplayARC(b *testing.B) {
	tr := randomTrace(100000, 2000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Replay(tr, NewARC(1500), 1500)
	}
}

// --- SetLRU (granularity ablation) -----------------------------------------------

func TestSetLRUDrainsVictimSetInAddressOrder(t *testing.T) {
	g := addrspaceGeom()
	s := NewSetLRU(g)
	for off := 0; off < 3; off++ {
		p := g.PageAt(1, off)
		s.OnFault(p, 0)
		s.OnMapped(p, 0)
	}
	for off := 0; off < 2; off++ {
		p := g.PageAt(2, off)
		s.OnFault(p, 0)
		s.OnMapped(p, 0)
	}
	// Set 1 is LRU; its pages drain in address order.
	for off := 0; off < 3; off++ {
		v := s.SelectVictim()
		if v != g.PageAt(1, off) {
			t.Fatalf("victim %d = %v, want %v", off, v, g.PageAt(1, off))
		}
		s.OnEvicted(v)
	}
	// Set 1 fully drained: set 2 is next.
	if v := s.SelectVictim(); g.SetOf(v) != 2 {
		t.Fatalf("victim %v not from set 2", v)
	}
	if n := residentSets(s); n != 1 {
		t.Fatalf("sets with a resident page = %d, want 1", n)
	}
}

// residentSets counts the sets on s's chain that hold a resident page.
func residentSets(s *SetLRU) int {
	n := 0
	for i := s.chain.order.Head(); i != slab.Nil; i = s.chain.nodes.Next(i) {
		if s.chain.nodes.At(i).resident != 0 {
			n++
		}
	}
	return n
}

func TestSetLRUTouchRefreshesWholeSet(t *testing.T) {
	g := addrspaceGeom()
	s := NewSetLRU(g)
	for id := 1; id <= 2; id++ {
		p := g.PageAt(addrspace.SetID(id), 0)
		s.OnFault(p, 0)
		s.OnMapped(p, 0)
	}
	// A hit on ANY page of set 1 protects all of set 1.
	s.OnWalkHit(g.PageAt(1, 5), 1)
	if v := s.SelectVictim(); g.SetOf(v) != 2 {
		t.Fatalf("victim %v, want set 2 (set 1 refreshed)", v)
	}
}

func TestSetLRUReplayInvariants(t *testing.T) {
	tr := randomTrace(15000, 400, 31)
	capacity := 150
	res := Replay(tr, NewSetLRU(addrspace.DefaultGeometry()), capacity)
	if res.Hits+res.Faults != uint64(tr.Len()) {
		t.Fatalf("hits+faults = %d", res.Hits+res.Faults)
	}
	ideal := Replay(tr, NewIdeal(trace.BuildFutureIndex(tr)), capacity)
	if res.Faults < ideal.Faults {
		t.Fatal("SetLRU beat Belady")
	}
}

func addrspaceGeom() addrspace.Geometry { return addrspace.DefaultGeometry() }
