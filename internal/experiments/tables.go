package experiments

import (
	"fmt"

	"hpe/internal/addrspace"
	"hpe/internal/gpu"
	"hpe/internal/hir"
	"hpe/internal/stats"
	"hpe/internal/trace"
	"hpe/internal/workload"
)

// table1 renders the simulated-system configuration (Table I).
func table1(*Suite, view) Report {
	//lint:ignore hpelint/specsource Table I documents the default configuration itself; no simulation runs on this config
	cfg := gpu.DefaultConfig(1)
	tb := stats.NewTable("component", "configuration")
	tb.AddRow("GPU Arch.", "NVIDIA GTX-480 Fermi-like")
	tb.AddRow("GPU Cores", fmt.Sprintf("%d cores, %.1fGHz", cfg.SMs, cfg.CoreMHz/1000))
	tb.AddRow("Warp slots", fmt.Sprintf("%d per SM", cfg.WarpsPerSM))
	tb.AddRow("Private L1 TLB", fmt.Sprintf("%d-entry per SM, %d-cycle latency, LRU, hit under miss",
		cfg.L1TLBEntries, cfg.L1TLBLatency))
	tb.AddRow("Shared L2 TLB", fmt.Sprintf("%d-entry, %d-associative, LRU, %d-cycle latency",
		cfg.L2TLBEntries, cfg.L2TLBWays, cfg.L2TLBLatency))
	tb.AddRow("Page table walk", fmt.Sprintf("single level, %d cycles, MSHR merging", cfg.WalkLatency))
	tb.AddRow("Page size", "4 KB OS pages")
	tb.AddRow("CPU-GPU interconnect", fmt.Sprintf("16GB/s, 20us page fault service time (%d cycles)",
		cfg.Driver.FaultLatency))
	tb.AddRow("HIR cache", fmt.Sprintf("%d-entry, %d-way, %d-bit counters, drain every %d faults",
		cfg.HIR.Entries, cfg.HIR.Ways, hir.CounterBits, cfg.Driver.TransferInterval))
	return Report{ID: "table1", Title: "Configuration of the simulated system", Text: tb.Render(),
		Metrics: map[string]float64{"faultCycles": float64(cfg.Driver.FaultLatency)}}
}

// table2 renders the workload characteristics (Table II), extended with the
// generated traces' measured footprints and lengths.
func table2(s *Suite, _ view) Report {
	tb := stats.NewTable("pattern", "suite", "app", "abbr", "pages", "MB", "refs", "refs/page")
	metrics := map[string]float64{}
	var totalMB float64
	for _, pt := range workload.PatternTypes() {
		for _, app := range s.apps {
			if app.Pattern != pt {
				continue
			}
			tr := s.Trace(app)
			p := trace.Profiler(tr, addrspace.DefaultGeometry())
			mb := float64(p.FootprintBytes) / (1 << 20)
			totalMB += mb
			tb.AddRow(pt.String(), app.Suite, app.Name, app.Abbr,
				fmt.Sprint(p.Footprint), fmt.Sprintf("%.1f", mb),
				fmt.Sprint(p.Refs), fmt.Sprintf("%.1f", p.MeanPageRefs))
			metrics["pages/"+app.Abbr] = float64(p.Footprint)
			metrics["refs/"+app.Abbr] = float64(p.Refs)
		}
	}
	metrics["meanMB"] = totalMB / float64(len(s.apps))
	text := tb.Render() + fmt.Sprintf("\nmean footprint %.1f MB (paper: 3–130 MB, mean 37 MB, scaled down ~4x for\nsimulation speed per the paper's own practice of limiting instruction counts)\n",
		metrics["meanMB"])
	return Report{ID: "table2", Title: "Workload characteristics", Text: text, Metrics: metrics}
}
