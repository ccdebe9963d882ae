package gpu

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"hpe/internal/hpe"
	"hpe/internal/policy"
	"hpe/internal/probe"
	"hpe/internal/sim"
)

// orderChecker records the event stream and the largest timestamp seen.
type orderChecker struct {
	t      *testing.T
	events int
	counts map[probe.Kind]uint64
	last   sim.Cycle
}

func newOrderChecker(t *testing.T) *orderChecker {
	return &orderChecker{t: t, counts: map[probe.Kind]uint64{}}
}

func (o *orderChecker) Emit(ev probe.Event) {
	if ev.At < o.last {
		o.t.Errorf("event %v at cycle %d precedes cycle %d (stream must be time-ordered)",
			ev.Kind, ev.At, o.last)
	}
	o.last = ev.At
	o.events++
	o.counts[ev.Kind]++
}

func (o *orderChecker) Flush() error { return nil }

// stripProbe zeroes the probe snapshot so probed and unprobed Results compare
// field-for-field.
func stripProbe(r Result) Result {
	r.Probe = nil
	return r
}

// TestProbeObservesWithoutChanging is the core observability contract:
// attaching probes must not move a single counter, and every event count
// must agree with the corresponding Result counter.
func TestProbeObservesWithoutChanging(t *testing.T) {
	tr := thrashTrace(12, 4) // oversubscribed: faults, evictions, refaults
	cfg := smallConfig(96)
	base := Run(cfg, tr, policy.NewLRU())

	oc := newOrderChecker(t)
	m := probe.NewMetrics()
	probed := Run(cfg, tr, policy.NewLRU(), WithProbe(probe.Multi(oc, m)))

	if probed.Probe == nil {
		t.Fatal("metrics probe did not surface on Result.Probe")
	}
	if !reflect.DeepEqual(stripProbe(probed), stripProbe(base)) {
		t.Fatalf("probed run diverged:\nprobed %+v\nbase   %+v", probed, base)
	}

	snap := *probed.Probe
	checks := []struct {
		kind string
		want uint64
	}{
		{"fault_end", base.Faults},
		{"fault_begin", base.Faults},
		{"eviction", base.Evictions},
		{"coalesce", base.Coalesced},
		{"walk_hit", base.WalkHits},
		{"walk_merge", base.WalkMerges},
		{"kernel_barrier", base.BarriersCrossed},
		{"tlb_miss", base.L1Misses + base.L2Misses},
	}
	for _, c := range checks {
		if got := snap.Count(c.kind); got != c.want {
			t.Errorf("probe count %s = %d, counter says %d", c.kind, got, c.want)
		}
	}
	if oc.events == 0 || uint64(oc.events) != snap.Events {
		t.Errorf("fanned-out probes disagree: checker saw %d, metrics %d", oc.events, snap.Events)
	}
	// Fault latency histogram: every fault takes at least the driver's
	// service latency.
	fe, ok := snap.ByKind("fault_end")
	if !ok || fe.Latency.Count != base.Faults {
		t.Fatalf("fault_end latency count = %d, want %d", fe.Latency.Count, base.Faults)
	}
	if fe.Latency.Min < uint64(cfg.Driver.FaultLatency) {
		t.Errorf("min fault latency %d below service latency %d",
			fe.Latency.Min, cfg.Driver.FaultLatency)
	}
}

// TestProbeHIREvents drives the HPE/HIR configuration and checks the
// HIR-specific kinds appear and agree with the HIR statistics.
func TestProbeHIREvents(t *testing.T) {
	tr := thrashTrace(48, 3) // beyond the L2 TLB reach: walks hit, HIR fills
	cfg := smallConfig(576)  // 75%
	cfg.UseHIR = true
	m := probe.NewMetrics()
	res := Run(cfg, tr, hpe.New(hpe.DefaultConfig()), WithProbe(m))
	if res.HIR == nil || res.HIR.HitsRecorded == 0 {
		t.Fatalf("no HIR activity: %+v", res.HIR)
	}
	// One hir_drain event per drain that actually moved entries (empty
	// drains transfer nothing and emit nothing); HPE receives each such
	// batch once.
	nonEmpty := res.HPE.HitBatches
	if nonEmpty == 0 {
		t.Fatal("no non-empty drains; workload does not exercise the path")
	}
	snap := *res.Probe
	if got := snap.Count("hir_drain"); got != nonEmpty {
		t.Errorf("hir_drain events = %d, non-empty drains = %d", got, nonEmpty)
	}
	if got := snap.Count("hir_conflict"); got != res.HIR.Conflicts {
		t.Errorf("hir_conflict events = %d, stats say %d", got, res.HIR.Conflicts)
	}
	// Drains carry a transfer-latency histogram.
	if hd, ok := snap.ByKind("hir_drain"); ok && hd.Latency.Count != nonEmpty {
		t.Errorf("hir_drain latency count = %d, want %d", hd.Latency.Count, nonEmpty)
	}
	// HIR probing must not perturb the run either.
	base := Run(cfg, tr, hpe.New(hpe.DefaultConfig()))
	if !reflect.DeepEqual(stripProbe(res), stripProbe(base)) {
		t.Fatal("HIR probed run diverged from unprobed run")
	}
}

// TestProbePrefetchEvents checks the block-prefetch path emits prefetch and
// batched fault-end events.
func TestProbePrefetchEvents(t *testing.T) {
	tr := streamTrace(8)
	cfg := smallConfig(256)
	cfg.Driver.PrefetchPages = 15
	m := probe.NewMetrics()
	res := Run(cfg, tr, policy.NewLRU(), WithProbe(m))
	snap := *res.Probe
	if got := snap.Count("prefetch"); got != res.Driver.Prefetched {
		t.Errorf("prefetch events = %d, driver says %d", got, res.Driver.Prefetched)
	}
	if snap.Count("fault_end") != res.Faults {
		t.Errorf("fault_end = %d, faults = %d", snap.Count("fault_end"), res.Faults)
	}
}

// TestChromeTraceFromSimulation is the acceptance check in miniature: a real
// run streamed through the Chrome-trace probe yields valid JSON with
// non-decreasing timestamps per lane.
func TestChromeTraceFromSimulation(t *testing.T) {
	tr := thrashTrace(8, 3)
	cfg := smallConfig(64)
	var buf bytes.Buffer
	ct := probe.NewChromeTrace(&buf, probe.ChromeTraceConfig{
		CoreMHz: sim.CoreMHz, SMs: cfg.SMs, Process: "probe_test",
	})
	Run(cfg, tr, policy.NewLRU(), WithProbe(ct))
	if err := ct.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) <= cfg.SMs+2 {
		t.Fatalf("trace has only %d events", len(doc.TraceEvents))
	}
	lastTs := map[int]float64{}
	names := map[string]int{}
	for i, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.Tid < 0 || ev.Tid > cfg.SMs {
			t.Fatalf("event %d on lane %d, want [0,%d]", i, ev.Tid, cfg.SMs)
		}
		if prev, ok := lastTs[ev.Tid]; ok && ev.Ts < prev {
			t.Fatalf("event %d (%s): ts %.4f precedes %.4f on lane %d", i, ev.Name, ev.Ts, prev, ev.Tid)
		}
		lastTs[ev.Tid] = ev.Ts
		names[ev.Name]++
	}
	for _, want := range []string{"fault", "evict", "tlb_miss"} {
		if names[want] == 0 {
			t.Errorf("trace has no %s events", want)
		}
	}
}

// TestNilProbeFastPath: the default construction leaves the probe nil so
// every emission site stays on its counter-only path.
func TestNilProbeFastPath(t *testing.T) {
	tr := streamTrace(2)
	s := New(smallConfig(64), tr, policy.NewLRU())
	if s.probe != nil {
		t.Fatal("probe set without WithProbe")
	}
	res := s.Run()
	if res.Probe != nil {
		t.Fatal("Result.Probe set without a metrics probe")
	}
	// WithProbe(nil-composed) also keeps the fast path.
	s2 := New(smallConfig(64), tr, policy.NewLRU(), WithProbe(probe.Multi()))
	if s2.probe != nil {
		t.Fatal("nil Multi should leave probe nil")
	}
}
