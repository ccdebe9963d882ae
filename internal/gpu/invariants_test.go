package gpu

import (
	"fmt"
	"testing"

	"hpe/internal/addrspace"
	"hpe/internal/policy"
	"hpe/internal/tlb"
	"hpe/internal/workload"
)

func defaultGeom() addrspace.Geometry { return addrspace.DefaultGeometry() }

// checkResultInvariants validates the accounting identities that hold for
// every completed simulation regardless of policy or workload:
//   - every trace reference completed,
//   - L1 lookups == accesses,
//   - every access resolved through exactly one path (L1 hit, L2 hit, walk,
//     or walk merge),
//   - faults ≥ footprint (compulsory misses) and evictions = faults − peak
//     residency,
//   - all kernel barriers were crossed.
func checkResultInvariants(t *testing.T, res Result, traceLen, footprint, capacity, barriers int) {
	t.Helper()
	if res.TimedOut {
		t.Fatal("run timed out")
	}
	if res.Accesses != uint64(traceLen) {
		t.Fatalf("completed %d accesses, trace has %d", res.Accesses, traceLen)
	}
	if res.L1Hits+res.L1Misses != res.Accesses {
		t.Fatalf("L1 lookups %d != accesses %d", res.L1Hits+res.L1Misses, res.Accesses)
	}
	if res.L1Hits+res.L2Hits+res.Walks+res.WalkMerges != res.Accesses {
		t.Fatalf("resolution paths don't sum: l1=%d l2=%d walks=%d merges=%d accesses=%d",
			res.L1Hits, res.L2Hits, res.Walks, res.WalkMerges, res.Accesses)
	}
	// A walk resolves as a hit, a new fault, or a merge onto an in-flight
	// fault at the driver.
	if res.WalkHits+res.Faults+res.Coalesced != res.Walks {
		t.Fatalf("walks %d != hits %d + faults %d + coalesced %d",
			res.Walks, res.WalkHits, res.Faults, res.Coalesced)
	}
	if res.Faults < uint64(footprint) {
		t.Fatalf("faults %d below compulsory %d", res.Faults, footprint)
	}
	peak := footprint
	if capacity < peak {
		peak = capacity
	}
	if res.Evictions != res.Faults-uint64(peak) {
		t.Fatalf("evictions %d != faults %d - peak %d", res.Evictions, res.Faults, peak)
	}
	if res.BarriersCrossed != uint64(barriers) {
		t.Fatalf("crossed %d barriers, trace has %d", res.BarriersCrossed, barriers)
	}
}

// TestSimulationInvariantsAcrossCatalog runs a sample of catalog apps under
// several policies and validates the accounting identities.
func TestSimulationInvariantsAcrossCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog invariants skipped in -short mode")
	}
	for _, abbr := range []string{"STN", "GEM", "B+T", "NW", "SPV"} {
		app, ok := workload.ByAbbr(abbr)
		if !ok {
			t.Fatalf("%s missing", abbr)
		}
		tr := app.Generate()
		for _, rate := range []int{75, 50} {
			capacity := tr.Footprint() * rate / 100
			cfg := DefaultConfig(capacity)
			cfg.ComputeGap = 2
			for _, pol := range []policy.Policy{
				policy.NewLRU(), policy.NewRandom(3),
				policy.NewClockPro(capacity, policy.DefaultColdTarget),
			} {
				res := Run(cfg, tr, pol)
				checkResultInvariants(t, res, tr.Len(), tr.Footprint(), capacity, len(tr.Barriers))
			}
		}
	}
}

// TestBarrierOrderingEnforced: with barriers, no access after a barrier may
// complete before every access before it. We verify via a policy that
// records fault sequence numbers and checks they never cross a barrier
// backwards by more than the in-flight window... simpler and airtight:
// a two-kernel trace where kernel 2 faults must all carry seq >= barrier.
func TestBarrierOrderingEnforced(t *testing.T) {
	b := workload.NewBuilder(defaultGeom(), 0, 1)
	workload.Thrashing(b, 8, 2, 1) // two passes with a barrier between
	tr := b.Build("two-kernel")
	barrier := tr.Barriers[0]

	rec := &seqRecorder{Policy: policy.NewLRU()}
	cfg := smallConfig(64) // tiny memory: both passes fault heavily
	res := Run(cfg, tr, rec)
	if res.BarriersCrossed == 0 {
		t.Fatal("no barriers crossed")
	}
	// Fault seqs must be grouped: all pass-1 faults (seq < barrier) precede
	// all pass-2 faults (seq >= barrier) in service order.
	crossed := false
	for _, seq := range rec.seqs {
		if seq >= barrier {
			crossed = true
		} else if crossed {
			t.Fatalf("pass-1 fault (seq %d) serviced after a pass-2 fault; barrier violated", seq)
		}
	}
}

type seqRecorder struct {
	policy.Policy
	seqs []int
}

func (r *seqRecorder) OnFault(p addrspace.PageID, seq int) {
	r.seqs = append(r.seqs, seq)
	r.Policy.OnFault(p, seq)
}

// TestShootdownOracle checks the page records against the definition of a
// correct shootdown: after a thrashing run, no L1 or L2 TLB slot holds a
// page that is not resident, and every valid slot is the one its page's
// record names (and no record names a slot its page lost). It reads the
// tag arrays slot by slot, independently of the records the simulator
// looks pages up in. 80 SMs exceed one 64-bit word of SMs, which the
// records do not care about. Dropping the L2-hit fill's record update or
// a shootdown of any SM leaves evicted pages behind. The prefetch row has
// a 15-page block prefetch evict, now and then, the page its own fault
// just brought in: the wake must then install no translation for it.
func TestShootdownOracle(t *testing.T) {
	tr := thrashTrace(64, 6) // 1,024 pages
	for _, row := range []struct {
		name                  string
		frames, sms, prefetch int
		pol                   policy.Policy
	}{
		// 75%: some pages survive a pass, so L2 hits fill L1s too.
		{"lru-80sm", 768, 80, 0, policy.NewLRU()},
		{"random-prefetch15", 64, 4, 15, policy.NewRandom(1)},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := smallConfig(row.frames)
			cfg.SMs = row.sms
			cfg.Driver.PrefetchPages = row.prefetch
			s := New(cfg, tr, row.pol)
			res := s.Run()
			if row.prefetch == 0 { // the identities count demand faults only
				checkResultInvariants(t, res, tr.Len(), tr.Footprint(), cfg.MemoryPages, len(tr.Barriers))
			}
			if res.Evictions == 0 {
				t.Fatal("no evictions: the oracle needs shootdowns to check")
			}
			check := func(name string, a *tlb.Slots, cell int) {
				held := 0
				for i := int32(0); i < int32(a.Len()); i++ {
					p, ok := a.Page(i)
					if !ok {
						continue
					}
					held++
					if !s.driver.Resident(p) {
						t.Errorf("%s holds evicted %v", name, p)
					}
					if rec := s.pages.Lookup(p); rec == nil || int32(rec[cell]) != i+1 {
						t.Errorf("%s slot %d holds %v, but its record names another slot", name, i, p)
					}
				}
				named := 0
				for _, p := range tr.UniquePages() {
					if rec := s.pages.Lookup(p); rec != nil && rec[cell] != 0 {
						named++
					}
				}
				if named != held {
					t.Errorf("%s: %d records name a slot, %d slots are valid", name, named, held)
				}
			}
			check("L2 TLB", s.l2, recL2)
			for _, sm := range s.sms {
				check(fmt.Sprintf("L1 TLB of SM %d", sm.id), sm.l1, recL1+sm.id)
			}
		})
	}
}
