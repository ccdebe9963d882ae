package policy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hpe/internal/addrspace"
	"hpe/internal/trace"
)

// plainTrace returns the trace over refs with no barriers or annotations.
func plainTrace(name string, refs []addrspace.PageID) *trace.Trace {
	tr, err := trace.New(name, refs, nil, nil, nil)
	if err != nil {
		panic(err) // unreachable: a plain trace breaks no rule of trace.New
	}
	return tr
}

func refs(ids ...uint64) []addrspace.PageID {
	out := make([]addrspace.PageID, len(ids))
	for i, id := range ids {
		out[i] = addrspace.PageID(id)
	}
	return out
}

func cyclicTrace(pages, passes int) *trace.Trace {
	var r []addrspace.PageID
	for p := 0; p < passes; p++ {
		for i := 0; i < pages; i++ {
			r = append(r, addrspace.PageID(i))
		}
	}
	return plainTrace("cyclic", r)
}

func randomTrace(n, footprint int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	r := make([]addrspace.PageID, n)
	for i := range r {
		r[i] = addrspace.PageID(rng.Intn(footprint))
	}
	return plainTrace("random", r)
}

// --- LRU ---------------------------------------------------------------------

func TestLRUEvictsLeastRecent(t *testing.T) {
	l := NewLRU()
	for i, p := range refs(1, 2, 3) {
		l.OnMapped(p, i)
	}
	l.OnWalkHit(1, 3) // 1 becomes MRU; LRU order now 2,3,1
	if v := l.SelectVictim(); v != 2 {
		t.Fatalf("victim = %v, want 2", v)
	}
	l.OnEvicted(2)
	if v := l.SelectVictim(); v != 3 {
		t.Fatalf("victim = %v, want 3", v)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
}

func TestLRUDoubleInsertPanics(t *testing.T) {
	l := NewLRU()
	l.OnMapped(1, 0)
	defer func() {
		if recover() == nil {
			t.Error("double OnMapped did not panic")
		}
	}()
	l.OnMapped(1, 1)
}

func TestLRUEmptyVictimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SelectVictim on empty LRU did not panic")
		}
	}()
	NewLRU().SelectVictim()
}

func TestLRUThrashesOnCyclicPattern(t *testing.T) {
	// The canonical LRU pathology (paper Type II): k pages cycled with
	// capacity k-1 faults on every reference after warmup.
	tr := cyclicTrace(10, 5)
	res := Replay(tr, NewLRU(), 9)
	if res.Faults != uint64(tr.Len()) {
		t.Fatalf("LRU faults = %d, want %d (every ref)", res.Faults, tr.Len())
	}
}

// --- FIFO --------------------------------------------------------------------

func TestFIFOIgnoresHits(t *testing.T) {
	f := NewFIFO()
	f.OnMapped(1, 0)
	f.OnMapped(2, 1)
	f.OnWalkHit(1, 2) // must not refresh
	if v := f.SelectVictim(); v != 1 {
		t.Fatalf("FIFO victim = %v, want 1", v)
	}
}

// --- Random ------------------------------------------------------------------

func TestRandomDeterministicWithSeed(t *testing.T) {
	tr := randomTrace(5000, 100, 1)
	a := Replay(tr, NewRandom(7), 50)
	b := Replay(tr, NewRandom(7), 50)
	if a.Faults != b.Faults || a.Evictions != b.Evictions {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	c := Replay(tr, NewRandom(8), 50)
	if a.Faults == c.Faults {
		t.Log("different seeds produced identical fault counts (possible but unlikely)")
	}
}

func TestRandomSelectsResident(t *testing.T) {
	r := NewRandom(1)
	for i := 0; i < 10; i++ {
		r.OnMapped(addrspace.PageID(i), i)
	}
	r.OnEvicted(3)
	r.OnEvicted(7)
	for i := 0; i < 100; i++ {
		v := r.SelectVictim()
		if v == 3 || v == 7 {
			t.Fatalf("Random selected evicted page %v", v)
		}
	}
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Len())
	}
}

// --- LFU ---------------------------------------------------------------------

func TestLFUEvictsLeastFrequent(t *testing.T) {
	l := NewLFU()
	l.OnMapped(1, 0)
	l.OnMapped(2, 1)
	l.OnMapped(3, 2)
	l.OnWalkHit(1, 3)
	l.OnWalkHit(1, 4)
	l.OnWalkHit(3, 5)
	// Counts: 1→3, 2→1, 3→2.
	if v := l.SelectVictim(); v != 2 {
		t.Fatalf("LFU victim = %v, want 2", v)
	}
}

func TestLFUTieBreaksByRecency(t *testing.T) {
	l := NewLFU()
	l.OnMapped(1, 0)
	l.OnMapped(2, 1)
	// Both count 1; page 1 is older.
	if v := l.SelectVictim(); v != 1 {
		t.Fatalf("LFU tie-break victim = %v, want 1 (least recent)", v)
	}
}

// --- RRIP --------------------------------------------------------------------

func TestRRIPDistantInsertionEvictsNewcomersFirst(t *testing.T) {
	r := NewRRIP(RRIPConfig{MBits: 2, InsertDistant: true})
	r.OnMapped(1, 0)
	r.OnWalkHit(1, 1) // 1's RRPV drops to 2
	r.OnMapped(2, 2)  // 2 inserted distant (3)
	if v := r.SelectVictim(); v != 2 {
		t.Fatalf("victim = %v, want 2 (distant newcomer)", v)
	}
}

func TestRRIPAgingFindsVictim(t *testing.T) {
	r := NewRRIP(DefaultRRIPConfig()) // long insertion (RRPV 2)
	r.OnMapped(1, 0)
	r.OnMapped(2, 1)
	r.OnWalkHit(1, 2) // 1 → 1, 2 stays 2
	// No page at RRPV 3: aging must promote 2 to 3 first.
	if v := r.SelectVictim(); v != 2 {
		t.Fatalf("victim = %v, want 2", v)
	}
}

func TestRRIPDelayFieldBlocksYoungPages(t *testing.T) {
	r := NewRRIP(RRIPConfig{MBits: 2, InsertDistant: true, DelayThreshold: 2})
	r.OnFault(1, 0)
	r.OnMapped(1, 0) // delay field = 1 (after first fault)
	r.OnFault(2, 1)
	r.OnMapped(2, 1) // delay field = 2
	r.OnFault(3, 2)
	r.OnMapped(3, 2) // delay field = 3
	// faultCount = 3. Eligible: margin >= 2 → pages with delay <= 1 → page 1.
	if v := r.SelectVictim(); v != 1 {
		t.Fatalf("victim = %v, want 1 (only page old enough)", v)
	}
}

func TestRRIPDelayRelaxesWhenAllYoung(t *testing.T) {
	r := NewRRIP(RRIPConfig{MBits: 2, InsertDistant: true, DelayThreshold: 1000})
	r.OnFault(1, 0)
	r.OnMapped(1, 0)
	// Nothing meets the delay margin; policy must still yield a victim.
	if v := r.SelectVictim(); v != 1 {
		t.Fatalf("victim = %v, want 1", v)
	}
}

func TestRRIPSlotReuse(t *testing.T) {
	r := NewRRIP(DefaultRRIPConfig())
	for i := 0; i < 100; i++ {
		r.OnMapped(addrspace.PageID(i), i)
	}
	for i := 0; i < 50; i++ {
		r.OnEvicted(addrspace.PageID(i))
	}
	for i := 100; i < 150; i++ {
		r.OnMapped(addrspace.PageID(i), i)
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d, want 100", r.Len())
	}
	if len(r.ring) != 100 {
		t.Fatalf("ring grew to %d despite free slots", len(r.ring))
	}
}

func TestRRIPBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MBits 0 did not panic")
		}
	}()
	NewRRIP(RRIPConfig{MBits: 0})
}

// --- CLOCK-Pro ---------------------------------------------------------------

func TestClockProColdInsertionAndEviction(t *testing.T) {
	c := NewClockPro(4, 2)
	for i := 0; i < 4; i++ {
		c.OnMapped(addrspace.PageID(i), i)
	}
	hot, cold, nonres := c.Counts()
	if hot != 0 || cold != 4 || nonres != 0 {
		t.Fatalf("counts = %d/%d/%d, want 0/4/0", hot, cold, nonres)
	}
	v := c.SelectVictim()
	c.OnEvicted(v)
	hot, cold, nonres = c.Counts()
	if cold != 3 || nonres != 1 {
		t.Fatalf("after evict: cold=%d nonres=%d, want 3,1 (test period keeps metadata)", cold, nonres)
	}
}

func TestClockProRefaultInTestPromotesToHot(t *testing.T) {
	c := NewClockPro(4, 2)
	c.OnMapped(1, 0)
	v := c.SelectVictim()
	if v != 1 {
		t.Fatalf("victim = %v", v)
	}
	c.OnEvicted(1)
	// Refault while still in test period → hot insertion.
	c.OnMapped(1, 1)
	hot, _, nonres := c.Counts()
	if hot != 1 || nonres != 0 {
		t.Fatalf("hot=%d nonres=%d, want 1,0", hot, nonres)
	}
}

func TestClockProReferencedColdPromotes(t *testing.T) {
	c := NewClockPro(4, 2)
	c.OnMapped(1, 0)
	c.OnMapped(2, 1)
	c.OnWalkHit(1, 2) // ref bit set while in test period
	v := c.SelectVictim()
	// Page 1 must be promoted, not evicted; victim must be 2.
	if v != 2 {
		t.Fatalf("victim = %v, want 2", v)
	}
	hot, _, _ := c.Counts()
	if hot != 1 {
		t.Fatalf("hot = %d, want 1 (page 1 promoted)", hot)
	}
}

func TestClockProNonResidentBounded(t *testing.T) {
	cap := 16
	c := NewClockPro(cap, 4)
	tr := randomTrace(20000, 400, 3)
	Replay(tr, c, cap)
	_, _, nonres := c.Counts()
	if nonres > cap+1 {
		t.Fatalf("non-resident metadata %d exceeds bound %d", nonres, cap)
	}
}

func TestClockProSurvivesWorkloads(t *testing.T) {
	// Smoke: several adversarial patterns must not panic and must produce
	// sane fault counts.
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
		cap  int
	}{
		{"cyclic", cyclicTrace(40, 10), 20},
		{"random", randomTrace(30000, 300, 9), 100},
		{"single", plainTrace("one", refs(1, 1, 1, 1, 1)), 4},
	} {
		c := NewClockPro(tc.cap, DefaultColdTarget)
		res := Replay(tc.tr, c, tc.cap)
		if res.Faults == 0 || res.Faults > uint64(tc.tr.Len()) {
			t.Errorf("%s: faults = %d out of range", tc.name, res.Faults)
		}
	}
}

// --- Ideal (Belady MIN) -------------------------------------------------------

func TestIdealOnKnownString(t *testing.T) {
	// Classic example: with capacity 3, MIN on a,b,c,d,a,b,e,a,b,c,d,e
	// faults 7 times (a,b,c,d compulsory + e, c, d).
	tr := plainTrace("belady", refs(1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5))
	res := Replay(tr, NewIdeal(trace.BuildFutureIndex(tr)), 3)
	if res.Faults != 7 {
		t.Fatalf("Ideal faults = %d, want 7", res.Faults)
	}
}

func TestIdealBeatsOrMatchesEveryPolicyOnEvictions(t *testing.T) {
	// Belady optimality (in fault count, full-visibility replay) against
	// every online policy on assorted traces.
	traces := []*trace.Trace{
		cyclicTrace(50, 6),
		randomTrace(20000, 200, 11),
		plainTrace("mixed", append(cyclicTrace(30, 4).Refs, randomTrace(5000, 120, 5).Refs...)),
	}
	for _, tr := range traces {
		cap := tr.Footprint() * 3 / 4
		ideal := Replay(tr, NewIdeal(trace.BuildFutureIndex(tr)), cap)
		online := []Policy{NewLRU(), NewFIFO(), NewRandom(1), NewLFU(),
			NewRRIP(DefaultRRIPConfig()), NewClockPro(cap, DefaultColdTarget)}
		for _, p := range online {
			got := Replay(tr, p, cap)
			if got.Faults < ideal.Faults {
				t.Errorf("%s: %s faulted %d < Ideal %d — MIN optimality violated",
					tr.Name, p.Name(), got.Faults, ideal.Faults)
			}
		}
	}
}

func TestIdealKeepsWorkingSetOnCyclicPattern(t *testing.T) {
	// k pages cycled, capacity m: MIN faults k + (passes-1)*(k-m) —
	// dramatically less than LRU's passes*k.
	k, m, passes := 20, 15, 5
	tr := cyclicTrace(k, passes)
	res := Replay(tr, NewIdeal(trace.BuildFutureIndex(tr)), m)
	want := uint64(k + (passes-1)*(k-m))
	if res.Faults != want {
		t.Fatalf("Ideal faults = %d, want %d", res.Faults, want)
	}
	lru := Replay(tr, NewLRU(), m)
	if lru.Faults != uint64(k*passes) {
		t.Fatalf("LRU faults = %d, want %d", lru.Faults, k*passes)
	}
}

// --- cross-policy invariants ---------------------------------------------------

func TestReplayInvariants(t *testing.T) {
	tr := randomTrace(15000, 250, 21)
	cap := 100
	policies := []Policy{NewLRU(), NewFIFO(), NewRandom(3), NewLFU(),
		NewRRIP(DefaultRRIPConfig()), NewRRIP(ThrashingRRIPConfig()),
		NewClockPro(cap, DefaultColdTarget),
		NewIdeal(trace.BuildFutureIndex(tr))}
	for _, p := range policies {
		res := Replay(tr, p, cap)
		if res.Hits+res.Faults != uint64(tr.Len()) {
			t.Errorf("%s: hits+faults = %d, want %d", p.Name(), res.Hits+res.Faults, tr.Len())
		}
		if res.Evictions > res.Faults {
			t.Errorf("%s: evictions %d > faults %d", p.Name(), res.Evictions, res.Faults)
		}
		// Evictions = faults - capacity once memory is full.
		if want := res.Faults - uint64(cap); res.Evictions != want {
			t.Errorf("%s: evictions = %d, want %d", p.Name(), res.Evictions, want)
		}
	}
}

func TestReplayBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Replay with capacity 0 did not panic")
		}
	}()
	Replay(cyclicTrace(4, 1), NewLRU(), 0)
}

func BenchmarkReplayLRU(b *testing.B) {
	tr := randomTrace(100000, 2000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Replay(tr, NewLRU(), 1500)
	}
}

func BenchmarkReplayIdeal(b *testing.B) {
	tr := randomTrace(100000, 2000, 1)
	fi := trace.BuildFutureIndex(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Replay(tr, NewIdeal(fi), 1500)
	}
}

func BenchmarkReplayClockPro(b *testing.B) {
	tr := randomTrace(100000, 2000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Replay(tr, NewClockPro(1500, DefaultColdTarget), 1500)
	}
}

// Property: recencyList behaves exactly like a model built from a slice —
// same membership, same length, and lru() always returns the front.
func TestRecencyListModelProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		l := newRecencyList()
		var model []addrspace.PageID // front = LRU
		contains := func(p addrspace.PageID) int {
			for i, q := range model {
				if q == p {
					return i
				}
			}
			return -1
		}
		for _, op := range ops {
			p := addrspace.PageID(op % 16)
			switch op % 3 {
			case 0: // insert or touch
				if i := contains(p); i >= 0 {
					if !l.touch(p) {
						return false
					}
					model = append(append(model[:i:i], model[i+1:]...), p)
				} else {
					l.pushMRU(p)
					model = append(model, p)
				}
			case 1: // touch only
				touched := l.touch(p)
				if i := contains(p); i >= 0 {
					if !touched {
						return false
					}
					model = append(append(model[:i:i], model[i+1:]...), p)
				} else if touched {
					return false
				}
			case 2: // remove
				removed := l.remove(p)
				if i := contains(p); i >= 0 {
					if !removed {
						return false
					}
					model = append(model[:i:i], model[i+1:]...)
				} else if removed {
					return false
				}
			}
			if l.len() != len(model) {
				return false
			}
			if len(model) > 0 {
				front, ok := l.lru()
				if !ok || front != model[0] {
					return false
				}
			} else if _, ok := l.lru(); ok {
				return false
			}
		}
		// Full order check at the end.
		i := 0
		for n := l.front(); n != nilNode; n = l.next(n) {
			if i >= len(model) || l.page(n) != model[i] {
				return false
			}
			i++
		}
		return i == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
