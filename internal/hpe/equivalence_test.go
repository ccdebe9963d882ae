package hpe

import (
	"math/rand"
	"reflect"
	"testing"

	"hpe/internal/addrspace"
	"hpe/internal/hir"
)

// equivalenceSets is the page-set pool of FuzzHPEEquivalence: dense low
// sets, sets on both sides of a 64-set page-table leaf edge, and sparse
// sets past 2^30 up to 2^50, so the per-set table sees first touches,
// shared leaves and far-apart leaves.
var equivalenceSets = func() []addrspace.SetID {
	var ss []addrspace.SetID
	for i := 0; i < 40; i++ {
		ss = append(ss, addrspace.SetID(i))
	}
	ss = append(ss, 63, 64, 127, 128)
	for i := 0; i < 16; i++ {
		ss = append(ss, addrspace.SetID(1<<30+i*4099))
	}
	return append(ss, 1<<40, 1<<45, 1<<50-1, 1<<50)
}()

// equivalenceConfig decodes a fuzzed configuration: the set size 1–32
// pages, the interval 1–96 faults, and a mode byte whose low bits pick the
// ideal hit feed, the sensitivity methodology (adjustment off, ideal feed,
// a manual strategy) and the division ablation, and whose high nibble
// scales the division threshold over [0, counter cap].
func equivalenceConfig(shift, interval, mode uint8) Config {
	cfg := ConfigForGeometry(addrspace.NewGeometry(uint(shift%6)), 1+int(interval%96))
	cfg.IdealHitFeed = mode&1 != 0
	if mode&2 != 0 {
		strat := Strategy(mode >> 2 & 1)
		cfg.DynamicAdjustment = false
		cfg.IdealHitFeed = true
		cfg.ManualStrategy = &strat
	}
	cfg.DisableDivision = mode&8 != 0
	cfg.DivisionCounterThreshold = int(mode>>4) * 4 * cfg.Geometry.SetSize() / 15
	return cfg
}

// hpePair drives the policy and its reference copy through one event
// stream against one simulated memory.
type hpePair struct {
	t        *testing.T
	got      *HPE
	want     *refHPE
	g        addrspace.Geometry
	capacity int
	resident []addrspace.PageID
	slot     map[addrspace.PageID]int // page → index in resident
	pending  []hir.Record             // walk hits not yet drained
	victims  int
}

func (d *hpePair) isResident(p addrspace.PageID) bool { _, ok := d.slot[p]; return ok }

func (d *hpePair) mapPage(p addrspace.PageID, seq int) {
	d.slot[p] = len(d.resident)
	d.resident = append(d.resident, p)
	d.got.OnMapped(p, seq)
	d.want.OnMapped(p, seq)
}

func (d *hpePair) evict(p addrspace.PageID) {
	i := d.slot[p]
	last := d.resident[len(d.resident)-1]
	d.resident[i] = last
	d.slot[last] = i
	d.resident = d.resident[:len(d.resident)-1]
	delete(d.slot, p)
	d.got.OnEvicted(p)
	d.want.OnEvicted(p)
}

// selectVictim asks both policies for a victim, requires the same page,
// and evicts it.
func (d *hpePair) selectVictim() {
	v, w := d.got.SelectVictim(), d.want.SelectVictim()
	if v != w {
		d.t.Fatalf("victim %d: got %v, reference %v", d.victims, v, w)
	}
	if !d.isResident(v) {
		d.t.Fatalf("victim %d: %v is not resident", d.victims, v)
	}
	d.victims++
	d.evict(v)
}

// makeRoom evicts the policies' victim while memory is full.
func (d *hpePair) makeRoom() {
	for len(d.resident) >= d.capacity {
		d.selectVictim()
	}
}

// hit records a walk hit: directly (both policies ignore it without the
// ideal feed) and in the pending HIR drain.
func (d *hpePair) hit(p addrspace.PageID, seq int) {
	d.got.OnWalkHit(p, seq)
	d.want.OnWalkHit(p, seq)
	set, off := d.g.SetOf(p), d.g.Offset(p)
	for i := range d.pending {
		if r := &d.pending[i]; r.Set == set {
			if r.Count(off) < 1<<hir.CounterBits-1 { // saturate as the HIR does
				r.Counts += 1 << (off * hir.CounterBits)
			}
			return
		}
	}
	d.pending = append(d.pending, hir.Record{Set: set, Counts: 1 << (off * hir.CounterBits)})
}

func (d *hpePair) checkStats(where int) {
	if got, want := d.got.Stats(), d.want.Stats(); !reflect.DeepEqual(got, want) {
		d.t.Fatalf("after op %d: stats diverged\n got  %+v\n want %+v", where, got, want)
	}
}

// FuzzHPEEquivalence drives one event stream through HPE and its
// reference copy (reference_test.go) and requires the same victim at
// every selection and the same Stats throughout. Ops come in byte pairs
// (op, arg): an access to offset op of the arg-th pool set (a fault, with
// an eviction when memory is full, or a walk hit), a HIR drain with one
// record for a set that may never have been touched, a speculative mapping
// without a fault (prefetch), an eviction of the policy's victim, or a
// forced eviction of an arbitrary resident page.
func FuzzHPEEquivalence(f *testing.F) {
	seeds := []struct {
		shift, interval, mode, capacity uint8
		pattern                         string
	}{
		{4, 64, 0, 120, "random"},         // the paper's production configuration
		{4, 64, 0, 150, "sweep"},          // regular thrash, HIR-fed
		{4, 64, 1, 150, "sweep"},          // ideal hit feed
		{4, 64, 1, 100, "even"},           // division
		{4, 64, 1 | 7<<4, 100, "even"},    // relaxed division threshold
		{4, 64, 1 | 8, 100, "even"},       // division disabled
		{4, 64, 2 | 4, 120, "random"},     // sensitivity, manual MRU-C
		{4, 64, 2, 120, "mixed"},          // sensitivity, manual LRU
		{3, 32, 0, 90, "mixed"},           // 8-page sets, 32-fault intervals
		{5, 16, 1, 200, "random"},         // 32-page sets
		{1, 8, 1, 100, "sweep"},           // 2-page sets: the jump floor is 8 sets
		{2, 4, 1, 60, "random"},           // 4-page sets, frequent rollovers
		{0, 1, 1, 20, "mixed"},            // 1-page sets, one-fault intervals
		{4, 64, 1 | 12<<4, 180, "mixed"},  // ideal feed, low threshold
		{4, 200, 0 | 15<<4, 255, "sweep"}, // interval wraps to 9, full threshold
	}
	for i, s := range seeds {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		f.Add(s.shift, s.interval, s.mode, s.capacity, equivalenceSeedOps(rng, s.pattern, 1<<(s.shift%6)))
	}
	f.Fuzz(func(t *testing.T, shift, interval, mode, capacity uint8, ops []byte) {
		replayEquivalence(t, shift, interval, mode, capacity, ops)
	})
}

// replayEquivalence runs one decoded stream through a fresh pair and
// returns it after the final Stats check.
func replayEquivalence(t *testing.T, shift, interval, mode, capacity uint8, ops []byte) *hpePair {
	cfg := equivalenceConfig(shift, interval, mode)
	d := &hpePair{
		t:        t,
		got:      New(cfg),
		want:     newRefHPE(refConfigOf(cfg)),
		g:        cfg.Geometry,
		capacity: 1 + int(capacity),
		slot:     make(map[addrspace.PageID]int),
	}
	setSize := cfg.Geometry.SetSize()
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		set := equivalenceSets[int(arg)%len(equivalenceSets)]
		p := d.g.PageAt(set, int(op)%setSize)
		switch {
		case op < 0xa0: // access
			if d.isResident(p) {
				d.hit(p, i)
				break
			}
			d.got.OnFault(p, i)
			d.want.OnFault(p, i)
			d.makeRoom()
			d.mapPage(p, i)
		case op < 0xc0: // HIR drain, plus a record for the arg set
			count := uint64(1 + op%3)
			recs := append(d.pending, hir.Record{Set: set, Counts: count << (int(op) % setSize * hir.CounterBits)})
			d.got.OnHitBatch(recs)
			d.want.OnHitBatch(recs)
			d.pending = nil
		case op < 0xe0: // prefetch
			if !d.isResident(p) {
				d.makeRoom()
				d.mapPage(p, i)
			}
		case op < 0xf0: // eviction of the policy's victim
			if len(d.resident) > 0 {
				d.selectVictim()
			}
		default: // forced eviction
			if len(d.resident) > 0 {
				d.evict(d.resident[int(arg)%len(d.resident)])
			}
		}
		if i%64 == 0 {
			d.checkStats(i)
		}
	}
	d.checkStats(len(ops))
	return d
}

// equivalenceSeedOps builds a seed stream of about 3,000 op pairs. The
// patterns steer classification: "sweep" faults whole sets cyclically
// (regular counters, MRU-C, wrong evictions and jumps), "even" touches
// even offsets of a few sets repeatedly (division), "random" spreads
// accesses over the pool with occasional drains, prefetches and forced
// evictions, and "mixed" alternates sweeps and random bursts.
func equivalenceSeedOps(rng *rand.Rand, pattern string, setSize int) []byte {
	var ops []byte
	access := func(set, off int) { ops = append(ops, byte(off%setSize), byte(set)) }
	random := func(n int) {
		for i := 0; i < n; i++ {
			switch r := rng.Intn(40); {
			case r == 0:
				ops = append(ops, byte(0xa0+rng.Intn(0x20)), byte(rng.Intn(256)))
			case r == 1:
				ops = append(ops, byte(0xc0+rng.Intn(0x20)), byte(rng.Intn(256)))
			case r == 2:
				ops = append(ops, byte(0xe0+rng.Intn(0x20)), byte(rng.Intn(256)))
			default:
				access(rng.Intn(len(equivalenceSets)), rng.Intn(setSize))
			}
		}
	}
	sweep := func(sets, passes int) {
		for p := 0; p < passes; p++ {
			for s := 0; s < sets; s++ {
				for off := 0; off < setSize; off++ {
					access(s, off)
				}
				if s%4 == 3 {
					ops = append(ops, 0xa0, 0) // drain the HIR
				}
			}
		}
	}
	switch pattern {
	case "sweep":
		sets := 3000 / setSize / 4
		if sets > len(equivalenceSets) {
			sets = len(equivalenceSets)
		}
		sweep(sets, 3000/(sets*setSize)+1)
	case "even":
		for round := 0; round < 60; round++ {
			for s := 0; s < 12; s++ {
				for off := 0; off < setSize; off += 2 {
					access(s, off)
				}
			}
			ops = append(ops, 0xa0, 0)
			random(4)
		}
	case "mixed":
		for len(ops) < 6000 {
			sweep(8, 1)
			random(200)
		}
	default:
		random(3000)
	}
	return ops
}
