package hpe

import (
	"math/bits"
	"math/rand"
	"testing"

	"hpe/internal/addrspace"
	"hpe/internal/policy"
	"hpe/internal/slab"
)

// checkChainInvariants validates the structural invariants the HPE design
// relies on:
//  1. the chain is sorted by movedInterval (partition derivation),
//  2. every entry is the one its set's record names for its half, and every
//     slab entry is either on the chain or on the free list,
//  3. resident pages imply bit-vector pages for primaries (a page must fault
//     before it can be resident),
//  4. counters are within [0, cap],
//  5. divided entries' masks agree with the division history.
func checkChainInvariants(t *testing.T, h *HPE) {
	t.Helper()
	c := h.chain
	prev := uint64(0)
	count := 0
	for i := c.order.Head(); i != slab.Nil; i = c.entries.Next(i) {
		e := c.entries.At(i)
		count++
		if e.movedInterval < prev {
			t.Fatal("chain not stamp-sorted")
		}
		prev = e.movedInterval
		hf := primary
		if e.secondary {
			hf = secondary
		}
		r := c.record(e.set)
		if r.entry[hf] != i {
			t.Fatalf("entry %d of %v not in its record %+v", i, e.set, *r)
		}
		if e.counter < 0 || e.counter > h.cfg.counterCap() {
			t.Fatalf("counter %d out of range", e.counter)
		}
		if !e.secondary && e.residentMask&^e.bitVector != 0 {
			t.Fatalf("entry %v resident pages %b outside faulted set %b",
				e.set, e.residentMask, e.bitVector)
		}
		if r.divided {
			setMask := uint32(1<<uint(h.cfg.Geometry.SetSize())) - 1
			if e.secondary && e.residentMask&r.primaryMask != 0 {
				t.Fatalf("secondary %v holds primary pages", e.set)
			}
			if !e.secondary && e.residentMask&^r.primaryMask&setMask != 0 {
				t.Fatalf("primary %v holds secondary pages", e.set)
			}
		}
	}
	if count != c.Len() {
		t.Fatalf("chain length %d != Len %d", count, c.Len())
	}
	if free := c.entries.Removed(); count+free != c.entries.Size() {
		t.Fatalf("%d chained + %d free entries, slab holds %d", count, free, c.entries.Size())
	}
}

// TestHPEInvariantsUnderRandomReplay replays randomized workloads through
// HPE and validates the chain after every phase.
func TestHPEInvariantsUnderRandomReplay(t *testing.T) {
	g := addrspace.DefaultGeometry()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		// Mixed pattern: streams, partial sets, revisits.
		var refs []addrspace.PageID
		sets := 20 + rng.Intn(40)
		for i := 0; i < 4000; i++ {
			s := addrspace.SetID(rng.Intn(sets))
			off := rng.Intn(16)
			if rng.Intn(3) == 0 {
				off = rng.Intn(8) * 2 // even-biased: exercises division
			}
			refs = append(refs, g.PageAt(s, off))
		}
		cfg := DefaultConfig()
		cfg.IdealHitFeed = true
		cfg.IntervalFaults = 16 + rng.Intn(64)
		// 4- to 32-page sets: the wrong-eviction threshold is the set size.
		cfg.Geometry = addrspace.NewGeometry(uint(2 + rng.Intn(4)))
		h := New(cfg)
		capacity := 1 + sets*16*(40+rng.Intn(40))/100
		res := policy.Replay(plainTrace("rnd", refs), h, capacity)
		if res.Faults == 0 {
			t.Fatalf("trial %d: no faults", trial)
		}
		checkChainInvariants(t, h)
		st := h.Stats()
		if st.Faults != res.Faults {
			t.Fatalf("trial %d: HPE counted %d faults, driver %d", trial, st.Faults, res.Faults)
		}
	}
}

// TestHPEResidencyMatchesDriver cross-checks HPE's per-entry residency
// bookkeeping against the replay's ground truth.
func TestHPEResidencyMatchesDriver(t *testing.T) {
	g := addrspace.DefaultGeometry()
	var refs []addrspace.PageID
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 6000; i++ {
		refs = append(refs, g.PageAt(addrspace.SetID(rng.Intn(30)), rng.Intn(16)))
	}
	cfg := DefaultConfig()
	cfg.IdealHitFeed = true
	h := New(cfg)
	tr := plainTrace("resi", refs)
	capacity := 300

	resident := make(map[addrspace.PageID]struct{})
	for seq, page := range tr.Refs {
		if _, ok := resident[page]; ok {
			h.OnWalkHit(page, seq)
			continue
		}
		h.OnFault(page, seq)
		if len(resident) >= capacity {
			v := h.SelectVictim()
			if _, ok := resident[v]; !ok {
				t.Fatalf("victim %v not resident", v)
			}
			delete(resident, v)
			h.OnEvicted(v)
		}
		resident[page] = struct{}{}
		h.OnMapped(page, seq)
	}
	// Sum of resident bits across entries == ground-truth residency.
	total := 0
	for _, e := range entries(h.chain) {
		total += bits.OnesCount32(e.residentMask)
	}
	if total != len(resident) {
		t.Fatalf("chain tracks %d resident pages, ground truth %d", total, len(resident))
	}
	checkChainInvariants(t, h)
}

// TestHPEDivisionThresholdRelaxation: a lower division threshold divides at
// least as many sets (the §V-B relaxation), never fewer.
func TestHPEDivisionThresholdRelaxation(t *testing.T) {
	g := addrspace.DefaultGeometry()
	build := func(threshold int) int {
		cfg := DefaultConfig()
		cfg.IdealHitFeed = true
		cfg.DivisionCounterThreshold = threshold
		h := New(cfg)
		// Touch even pages of 10 sets, 6 rounds: counters reach 48.
		for round := 0; round < 6; round++ {
			for s := 0; s < 10; s++ {
				for off := 0; off < 16; off += 2 {
					p := g.PageAt(addrspace.SetID(s), off)
					if round == 0 {
						h.OnFault(p, 0)
						h.OnMapped(p, 0)
					} else {
						h.OnWalkHit(p, 0)
					}
				}
			}
		}
		return h.Stats().Divisions
	}
	at64 := build(0)  // cap: counters stop at 48 → no divisions
	at48 := build(48) // relaxed: all 10 divide
	at32 := build(32)
	if at64 != 0 {
		t.Fatalf("threshold 64: %d divisions, want 0 (counters reach only 48)", at64)
	}
	if at48 != 10 || at32 != 10 {
		t.Fatalf("relaxed thresholds divided %d/%d sets, want 10/10", at48, at32)
	}
}

func TestHPEInvalidDivisionThresholdPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DivisionCounterThreshold = 100 // above cap 64
	defer func() {
		if recover() == nil {
			t.Error("threshold above cap accepted")
		}
	}()
	New(cfg)
}
