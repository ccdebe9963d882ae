package gpu

import (
	"testing"

	"hpe/internal/policy"
	"hpe/internal/workload"
)

// TestSegmentComputeGaps runs a phase schedule and checks the per-segment
// compute gaps reach the IPC accounting: every access retires with its
// segment's gap, so the instruction total is the exact per-segment sum.
func TestSegmentComputeGaps(t *testing.T) {
	ps, err := workload.ParsePhases("HOT:16:2,HSD:32:7,HOT:16:2")
	if err != nil {
		t.Fatal(err)
	}
	tr := ps.App().Generate()
	if len(tr.Segments) != 3 {
		t.Fatalf("got %d segments", len(tr.Segments))
	}
	cfg := DefaultConfig(tr.Footprint() * 3 / 4)
	r := Run(cfg, tr, policy.NewLRU())
	if r.Accesses != uint64(tr.Len()) {
		t.Fatalf("completed %d of %d accesses", r.Accesses, tr.Len())
	}
	var want uint64
	for i, seg := range tr.Segments {
		end := tr.Len()
		if i+1 < len(tr.Segments) {
			end = tr.Segments[i+1].Start
		}
		want += uint64(end-seg.Start) * uint64(1+seg.Gap)
	}
	if r.Instructions != want {
		t.Fatalf("instructions = %d, want per-segment sum %d", r.Instructions, want)
	}
	if want == uint64(tr.Len())*uint64(1+cfg.ComputeGap) {
		t.Fatal("test is vacuous: segment gaps coincide with the uniform gap")
	}
}

// TestTenantAttribution runs a colocation and checks the driver's per-tenant
// counters: complete coverage (every fault and eviction is attributed) and
// cross-tenant evictions under memory pressure.
func TestTenantAttribution(t *testing.T) {
	co, err := workload.ParseTenants("HSD,BFS")
	if err != nil {
		t.Fatal(err)
	}
	tr := co.App(512).Generate()
	cfg := DefaultConfig(tr.Footprint() / 2)
	r := Run(cfg, tr, policy.NewLRU())

	tens := r.Driver.Tenants
	if len(tens) != 2 || tens[0].Name != "HSD" || tens[1].Name != "BFS" {
		t.Fatalf("driver tenant stats = %+v", tens)
	}
	var faults, evictions uint64
	for _, ts := range tens {
		if ts.Faults == 0 {
			t.Errorf("tenant %s recorded no faults", ts.Name)
		}
		faults += ts.Faults
		evictions += ts.Evictions
	}
	if faults != r.Faults {
		t.Errorf("attributed faults %d != serviced faults %d", faults, r.Faults)
	}
	if evictions != r.Evictions {
		t.Errorf("attributed evictions %d != total evictions %d", evictions, r.Evictions)
	}
	if evictions > 0 && tens[0].CrossEvictions+tens[1].CrossEvictions == 0 {
		t.Error("colocated run under memory pressure saw no cross-tenant evictions")
	}
}

// TestStationaryResultUnchanged pins the workload-v1 contract: an
// unannotated trace must produce the exact instruction accounting it always
// had (completed × (1 + uniform gap)), with no tenant block in the stats.
func TestStationaryResultUnchanged(t *testing.T) {
	app, _ := workload.ByAbbr("HOT")
	tr := app.Generate()
	cfg := DefaultConfig(tr.Footprint() * 3 / 4)
	r := Run(cfg, tr, policy.NewLRU())
	if want := r.Accesses * uint64(1+cfg.ComputeGap); r.Instructions != want {
		t.Fatalf("stationary instructions = %d, want %d", r.Instructions, want)
	}
	if r.Driver.Tenants != nil {
		t.Fatalf("stationary run grew tenant stats: %+v", r.Driver.Tenants)
	}
}
