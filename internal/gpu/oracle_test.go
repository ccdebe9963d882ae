package gpu_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"hpe/internal/addrspace"
	"hpe/internal/gpu"
	"hpe/internal/hir"
	"hpe/internal/hpe"
	"hpe/internal/pagetable"
	"hpe/internal/policy"
	"hpe/internal/probe"
	"hpe/internal/registry"
	"hpe/internal/runspec"
	"hpe/internal/trace"
	"hpe/internal/uvm"
	"hpe/internal/workload"
)

// victimLog records every eviction event, in order: Page is the victim.
type victimLog []probe.Event

func (v *victimLog) Emit(ev probe.Event) {
	if ev.Kind == probe.KindEviction {
		*v = append(*v, ev)
	}
}

func (v *victimLog) Flush() error { return nil }

// collapse drops every reference that repeats the one before it: exactly
// the references a one-entry TLB filters from the page walker.
func collapse(tr *trace.Trace) *trace.Trace {
	refs := make([]addrspace.PageID, 0, tr.Len())
	for i, p := range tr.Refs {
		if i == 0 || p != tr.Refs[i-1] {
			refs = append(refs, p)
		}
	}
	return trace.New(tr.Name+"-collapsed", refs)
}

// oneWarpPolicy builds a fresh registry policy for the run over tr (whose
// Belady index, for Ideal, is tr's own). HPE runs without the HIR, so page
// walk hits reach its chain directly (IdealHitFeed).
func oneWarpPolicy(t *testing.T, name string, app workload.App, tr *trace.Trace, capacity int) policy.Policy {
	t.Helper()
	cfg := hpe.DefaultConfig()
	cfg.IdealHitFeed = true
	pol, err := registry.New(name, registry.Options{
		Seed:          1,
		Capacity:      capacity,
		Future:        func() *trace.FutureIndex { return trace.BuildFutureIndex(tr) },
		ThrashingRRIP: app.Pattern == workload.PatternThrashing,
		HPE:           &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestOneWarpReducesToReplay is the timing simulator's oracle: with one SM,
// one warp, one-entry L1 and L2 TLBs, no HIR and no prefetch, accesses
// issue strictly one after another and a reference reaches the page walker
// exactly when it differs from the one before it. gpu.Run must then evict
// the same pages, in the same order, as policy.Replay over the trace with
// adjacent duplicates collapsed. It covers every catalog app and every
// workload-v2 preset under every registry policy at 75%, HPE included:
// without the HIR its walk hits reach the chain directly (IdealHitFeed).
// Without the collapse, LFU and RRIP differ on GEM: the TLB hides hits
// from the policy.
//
// Ideal is checked up to ties. Many resident pages are never used again,
// and Ideal breaks that tie by its heaps' push history. gpu.Run's Belady
// index is over the full trace, so after a fault it sees the adjacent
// duplicate the TLB will absorb as the page's next use, and re-queues the
// page once that use has passed; the replay's index never sees it. So for
// Ideal each gpu.Run victim must have the same next use in the collapsed
// trace, after the faulting reference, as the replay's victim: both never
// used again, or the same page.
func TestOneWarpReducesToReplay(t *testing.T) {
	var specs []runspec.Spec
	for _, app := range workload.Catalog() {
		specs = append(specs, runspec.Spec{App: app.Abbr, Rate: 75})
	}
	for _, sc := range workload.Scenarios() {
		specs = append(specs, runspec.Spec{Phases: sc.Phases, Tenants: sc.Tenants, Interleave: sc.Interleave, Rate: 75})
	}
	cells := 0
	for _, sp := range specs {
		sp.Policy = "lru"
		m, err := sp.Materialize(runspec.Env{})
		if err != nil {
			t.Fatal(err)
		}
		tr, short := m.Trace, collapse(m.Trace)
		future := trace.BuildFutureIndex(short)
		nextUse := func(p addrspace.PageID, after int) int {
			if n, ok := future.NextUse(p, after); ok {
				return n
			}
			return -1
		}
		cfg := m.Config
		cfg.SMs, cfg.WarpsPerSM = 1, 1
		cfg.L1TLBEntries, cfg.L1TLBWays = 1, 1
		cfg.L2TLBEntries, cfg.L2TLBWays = 1, 1
		cfg.UseHIR = false
		cfg.Driver.PrefetchPages = 0
		for _, name := range registry.Names() {
			var got victimLog
			res := gpu.Run(cfg, tr, oneWarpPolicy(t, name, m.App, tr, m.Capacity), gpu.WithProbe(&got))
			var want victimLog
			rep := policy.ReplayContext(t.Context(), short, oneWarpPolicy(t, name, m.App, short, m.Capacity), m.Capacity, &want)
			cell := fmt.Sprintf("%s/%s", tr.Name, name)
			if res.Faults != rep.Faults || res.Evictions != rep.Evictions {
				t.Errorf("%s: gpu.Run faults/evictions %d/%d, replay %d/%d",
					cell, res.Faults, res.Evictions, rep.Faults, rep.Evictions)
				continue
			}
			for i, w := range want {
				g := got[i]
				same := g.Page == w.Page
				if name == "ideal" {
					at := int(w.At) // the replay's clock is the collapsed trace position
					same = nextUse(g.Page, at) == nextUse(w.Page, at)
				}
				if !same {
					t.Errorf("%s: eviction %d of %d: gpu.Run evicted %v, replay %v", cell, i, len(want), g.Page, w.Page)
					break
				}
			}
			cells++
		}
	}
	if want := (len(workload.Catalog()) + len(workload.Scenarios())) * len(registry.Names()); cells != want && !t.Failed() {
		t.Fatalf("checked %d cells, want %d", cells, want)
	}
}

// refHIR is the HIR of §IV-B written out plainly, independent of hir.Cache:
// rows of 8 ways keyed by page set, a 2-bit saturating count per page of
// the set, a hit dropped when its row already holds 8 other sets, and a
// drain that returns the held sets in first-touch order, each count packed
// into its record's word at its offset, and empties the cache.
// TestRefHIRMatchesCache checks it against hir.Cache;
// TestOneWarpProductionPath uses it as the replay's HIR.
type refHIR struct {
	geo    addrspace.Geometry
	rows   int
	used   []int // sets held per row
	counts map[addrspace.SetID][]uint8
	order  []addrspace.SetID
}

const refHIRWays, refHIRMaxCount = 8, 3

func newRefHIR(entries int, geo addrspace.Geometry) *refHIR {
	rows := entries / refHIRWays
	return &refHIR{geo: geo, rows: rows, used: make([]int, rows), counts: map[addrspace.SetID][]uint8{}}
}

func (h *refHIR) hit(p addrspace.PageID) {
	set := h.geo.SetOf(p)
	c, ok := h.counts[set]
	if !ok {
		row := int(uint64(set) % uint64(h.rows))
		if h.used[row] == refHIRWays {
			return
		}
		h.used[row]++
		c = make([]uint8, h.geo.SetSize())
		h.counts[set] = c
		h.order = append(h.order, set)
	}
	if off := h.geo.Offset(p); c[off] < refHIRMaxCount {
		c[off]++
	}
}

func (h *refHIR) drain() []hir.Record {
	var out []hir.Record
	for _, set := range h.order {
		var word uint64
		for off, c := range h.counts[set] {
			word |= uint64(c) << (off * hir.CounterBits)
		}
		out = append(out, hir.Record{Set: set, Counts: word})
	}
	h.used = make([]int, h.rows)
	h.counts = map[addrspace.SetID][]uint8{}
	h.order = nil
	return out
}

// TestRefHIRMatchesCache drives refHIR and hir.Cache with the same random
// hits and drains, over page ranges that overflow some rows, and requires
// every drain to return the same records, count words included, in the
// same order.
func TestRefHIRMatchesCache(t *testing.T) {
	for _, entries := range []int{16, 64, 1024} {
		geo := addrspace.DefaultGeometry()
		if hir.Ways != refHIRWays || hir.CounterBits != 2 {
			t.Fatalf("refHIR models 8-way rows of 2-bit counts, hir.Cache is %d-way, %d-bit", hir.Ways, hir.CounterBits)
		}
		got, want := hir.New(entries, geo), newRefHIR(entries, geo)
		rng := rand.New(rand.NewSource(int64(entries)))
		pages := entries * 3 * geo.SetSize() // three times the sets the cache holds
		conflicts := uint64(0)
		for op := 0; op < 50000; op++ {
			if rng.Intn(2*entries) > 0 { // about two hits per entry between drains
				p := addrspace.PageID(rng.Intn(pages))
				got.RecordHit(p)
				want.hit(p)
				continue
			}
			g, w := got.Drain(), want.drain()
			if len(g) != len(w) {
				t.Fatalf("%d entries, op %d: hir.Cache drained %d records, refHIR %d", entries, op, len(g), len(w))
			}
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("%d entries, op %d: record %d is %+v, refHIR %+v", entries, op, i, g[i], w[i])
				}
			}
			conflicts = got.Stats().Conflicts
		}
		if conflicts == 0 {
			t.Fatalf("%d entries: no way conflict was exercised", entries)
		}
	}
}

// replayStats is what replayProduction reports.
type replayStats struct {
	faults, prefetched, drains int
	victims                    []addrspace.PageID
}

// replayProduction replays tr through pol the way one warp drives the
// production driver. It models the one-entry TLB's content: a reference to
// the page it holds is absorbed and skipped; the rest carry their position
// in tr, as the walks of gpu.Run do. A reference to a resident page is a
// walk hit: the policy sees OnWalkHit, the reference HIR records it, and
// the TLB takes the page. A fault maps the page (evicting first when memory
// is full), then maps up to prefetch non-resident pages of its aligned
// 16-page block, evicting as needed, with OnMapped only; the TLB takes the
// page only if that prefetch left it resident, and otherwise keeps what it
// held. An eviction of the page the TLB holds empties it. After every
// interval-th fault the HIR drains and a non-empty batch goes straight to
// the policy's OnHitBatch.
func replayProduction(tr *trace.Trace, pol policy.Policy, capacity, prefetch, interval, hirEntries int, geo addrspace.Geometry) replayStats {
	var st replayStats
	resident := pagetable.New[struct{}]()
	isResident := func(p addrspace.PageID) bool { _, ok := resident.Get(p); return ok }
	h := newRefHIR(hirEntries, geo)
	var tlbPage addrspace.PageID
	tlbHeld := false
	mapPage := func(p addrspace.PageID) {
		if resident.Len() == capacity {
			v := pol.SelectVictim()
			if !resident.Delete(v) {
				panic(fmt.Sprintf("replay: %s chose non-resident victim %v", pol.Name(), v))
			}
			pol.OnEvicted(v)
			st.victims = append(st.victims, v)
			if v == tlbPage {
				tlbHeld = false
			}
		}
		resident.Put(p, struct{}{})
	}
	for seq, p := range tr.Refs {
		if tlbHeld && p == tlbPage {
			continue
		}
		if isResident(p) {
			pol.OnWalkHit(p, seq)
			h.hit(p)
			tlbPage, tlbHeld = p, true
			continue
		}
		st.faults++
		pol.OnFault(p, seq)
		mapPage(p)
		pol.OnMapped(p, seq)
		base := p &^ 15
		for off, brought := addrspace.PageID(0), 0; off < 16 && brought < prefetch; off++ {
			if q := base + off; q != p && !isResident(q) {
				mapPage(q)
				pol.OnMapped(q, seq)
				brought++
				st.prefetched++
			}
		}
		if isResident(p) {
			tlbPage, tlbHeld = p, true
		}
		if st.faults%interval == 0 {
			st.drains++
			if recs := h.drain(); len(recs) > 0 {
				if sink, ok := pol.(uvm.HitBatchReceiver); ok {
					sink.OnHitBatch(recs)
				}
			}
		}
	}
	return st
}

// TestOneWarpProductionPath extends TestOneWarpReducesToReplay to the path
// every paper figure runs: the HIR on, HPE learning walk hits only from its
// drains (no IdealHitFeed), and block prefetch of 0, 1, 4 and 15 pages. It
// covers every catalog app and workload-v2 preset at 75% and 50% under
// every registry policy. With one SM, one warp and one-entry TLBs, gpu.Run
// must evict the same pages, in the same order, as replayProduction, and
// take as many faults, prefetches and HIR drains. Both sides give the
// policy positions in the full trace, so Ideal, whose Belady index is over
// the full trace on both sides, must match exactly too.
//
// One warp cannot reach what needs concurrent accesses: multi-warp
// interleaving, walk-MSHR merges, fault coalescing, and a prefetch that
// resolves a queued fault (uvm.Stats.Batched). The run digests and
// TestShootdownOracle cover those.
func TestOneWarpProductionPath(t *testing.T) {
	var specs []runspec.Spec
	for _, app := range workload.Catalog() {
		specs = append(specs, runspec.Spec{App: app.Abbr})
	}
	for _, sc := range workload.Scenarios() {
		specs = append(specs, runspec.Spec{Phases: sc.Phases, Tenants: sc.Tenants, Interleave: sc.Interleave})
	}
	prefetches := []int{0, 1, 4, 15}
	rates := []int{75, 50}
	var cells atomic.Int64
	t.Run("cells", func(t *testing.T) {
		for _, spec := range specs {
			for _, rate := range rates {
				sp := spec // each parallel subtest keeps its own rate
				sp.Policy, sp.Rate = "lru", rate
				t.Run("", func(t *testing.T) {
					t.Parallel()
					cells.Add(int64(checkProductionPath(t, sp, prefetches)))
				})
			}
		}
	})
	if want := len(specs) * len(rates) * len(prefetches) * len(registry.Names()); int(cells.Load()) != want && !t.Failed() {
		t.Fatalf("checked %d cells, want %d", cells.Load(), want)
	}
}

// checkProductionPath runs TestOneWarpProductionPath's cells for one spec
// and rate and returns how many it checked.
func checkProductionPath(t *testing.T, sp runspec.Spec, prefetches []int) int {
	m, err := sp.Materialize(runspec.Env{})
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Trace
	cfg := m.Config
	cfg.SMs, cfg.WarpsPerSM = 1, 1
	cfg.L1TLBEntries, cfg.L1TLBWays = 1, 1
	cfg.L2TLBEntries, cfg.L2TLBWays = 1, 1
	cfg.UseHIR = true
	cells := 0
	for _, prefetch := range prefetches {
		cfg.Driver.PrefetchPages = prefetch
		for _, name := range registry.Names() {
			want := replayProduction(tr, productionPolicy(t, name, m.App, tr, m.Capacity),
				m.Capacity, prefetch, cfg.Driver.TransferInterval, cfg.HIREntries, addrspace.DefaultGeometry())
			got := make(victimLog, 0, len(want.victims))
			res := gpu.Run(cfg, tr, productionPolicy(t, name, m.App, tr, m.Capacity), gpu.WithProbe(&got))
			cell := fmt.Sprintf("%s@%d/prefetch%d/%s", tr.Name, sp.Rate, prefetch, name)
			if int(res.Faults) != want.faults || int(res.Evictions) != len(want.victims) ||
				int(res.Driver.Prefetched) != want.prefetched || int(res.HIR.Drains) != want.drains {
				t.Errorf("%s: gpu.Run faults/evictions/prefetched/drains %d/%d/%d/%d, replay %d/%d/%d/%d",
					cell, res.Faults, res.Evictions, res.Driver.Prefetched, res.HIR.Drains,
					want.faults, len(want.victims), want.prefetched, want.drains)
				continue
			}
			for i, w := range want.victims {
				if g := got[i].Page; g != w {
					t.Errorf("%s: eviction %d of %d: gpu.Run evicted %v, replay %v", cell, i, len(want.victims), g, w)
					break
				}
			}
			cells++
		}
	}
	return cells
}

// productionPolicy builds a fresh registry policy for the run over tr as
// Materialize does for a default spec: HPE in its production configuration.
func productionPolicy(t *testing.T, name string, app workload.App, tr *trace.Trace, capacity int) policy.Policy {
	t.Helper()
	pol, err := registry.New(name, registry.Options{
		Seed:          1,
		Capacity:      capacity,
		Future:        func() *trace.FutureIndex { return trace.BuildFutureIndex(tr) },
		ThrashingRRIP: app.Pattern == workload.PatternThrashing,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pol
}
