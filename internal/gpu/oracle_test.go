package gpu_test

import (
	"fmt"
	"testing"

	"hpe/internal/addrspace"
	"hpe/internal/gpu"
	"hpe/internal/hpe"
	"hpe/internal/policy"
	"hpe/internal/probe"
	"hpe/internal/registry"
	"hpe/internal/runspec"
	"hpe/internal/trace"
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
