package experiments

import (
	"fmt"
	"strings"
	"time"

	"hpe/internal/addrspace"
	"hpe/internal/cache"
	"hpe/internal/gpu"
	"hpe/internal/hir"
	"hpe/internal/hpe"
	"hpe/internal/stats"
	"hpe/internal/workload"
)

// overhead reproduces the §V-C overhead analysis: HIR storage cost, the
// wall-clock cost of classification and chain updates (measured on the host
// running this reproduction, mirroring the paper's own wall-clock
// methodology), and the host-CPU core-load estimate per policy.
func overhead(s *Suite, res view) Report {
	var b strings.Builder
	metrics := map[string]float64{}

	// --- HIR storage (paper: 80-bit entries, 10 KB total, 4.2% of 240 KB
	// of L1 data cache across SMs).
	h := hir.New(hir.DefaultEntries, addrspace.DefaultGeometry())
	storage := h.StorageBytes()
	l1DataTotal := gpu.DefaultSMs * cache.L1Config().SizeBytes // Table I: every SM's L1 data cache
	metrics["hirBytes"] = float64(storage)
	fmt.Fprintf(&b, "HIR storage: %d bytes/entry, %d KB total = %.1f%% of all SMs' L1 data cache (%d KB)\n",
		h.TransferBytes(1), storage/1024, float64(storage)/float64(l1DataTotal)*100, l1DataTotal/1024)
	fmt.Fprintf(&b, "  paper: 10 B/entry, 10 KB, 4.2%% of 240 KB\n\n")

	// --- Classification cost: wall-clock time to classify a KMN-sized
	// chain (the largest footprint, as the paper chose).
	kmn, ok := workload.ByAbbr("KMN")
	if !ok {
		panic("experiments: overhead references unknown app KMN")
	}
	classifyUS := measureClassification(kmn.Sets)
	metrics["classifyUS"] = classifyUS
	fmt.Fprintf(&b, "classification of a KMN-sized chain: %.1f us (paper: 16.7 us, once per run, vs 20 us fault penalty)\n\n", classifyUS)

	// --- Chain-update cost: wall-clock time to apply a 150-record HIR drain
	// to a 200-entry chain (the paper's worst-case MVT approximation).
	updateUS := measureChainUpdate(200, 150)
	metrics["updateUS"] = updateUS
	fmt.Fprintf(&b, "applying a 150-record drain to a 200-set chain: %.1f us\n", updateUS)
	fmt.Fprintf(&b, "  paper: 16.1 us worst case, amortised over %d faults -> ~5%% of the fault penalty,\n", 16)
	fmt.Fprintf(&b, "  and off the fault-handling critical path\n\n")

	// --- Host core load: driver busy time / total runtime.
	tb := stats.NewTable("policy", "core load @75%", "core load @50%")
	for _, pol := range overheadPolicies {
		row := []string{display(pol)}
		for _, rate := range Rates {
			var loads []float64
			for _, app := range s.apps {
				r := res.Run(app, pol, rate)
				if r.Cycles > 0 {
					loads = append(loads, float64(r.Driver.BusyCycles)/float64(r.Cycles))
				}
			}
			load := stats.Mean(loads)
			metrics[fmt.Sprintf("load%d/%s", rate, display(pol))] = load
			row = append(row, fmt.Sprintf("%.1f%%", load*100))
		}
		tb.AddRow(row...)
	}
	b.WriteString(tb.Render())
	b.WriteString("\npaper: LRU 29.9%/39.3%, RRIP 30.3%/39.5%, CLOCK-Pro 29.5%/39.2%, HPE 34.0%/47.2%\n")
	b.WriteString("(HPE's extra load comes from HIR transfers; fewer faults partially repay it)\n")

	return Report{ID: "overhead", Title: "Overhead analysis (§V-C)", Text: b.String(), Metrics: metrics}
}

// measureClassification times HPE's statistics classification over a chain
// of `sets` page sets, in microseconds (the fastest of five trials).
func measureClassification(sets int) float64 {
	return fastestUS(5, func() func() {
		h := hpe.New(hpe.DefaultConfig())
		g := addrspace.DefaultGeometry()
		for i := 0; i < sets; i++ {
			// Populate with mixed counters: fault in 3..16 pages per set.
			n := 3 + i%14
			for off := 0; off < n; off++ {
				p := g.PageAt(addrspace.SetID(i), off)
				h.OnFault(p, 0)
				h.OnMapped(p, 0)
			}
		}
		return func() { h.SelectVictim() } // triggers the one-time classification
	})
}

// measureChainUpdate times the application of an HIR drain of `records`
// records to a chain of `sets` sets, in microseconds (the fastest of seven
// trials).
func measureChainUpdate(sets, records int) float64 {
	h := hpe.New(hpe.DefaultConfig())
	g := addrspace.DefaultGeometry()
	for i := 0; i < sets; i++ {
		for off := 0; off < 4; off++ {
			p := g.PageAt(addrspace.SetID(i), off)
			h.OnFault(p, 0)
			h.OnMapped(p, 0)
		}
	}
	recs := make([]hir.Record, records)
	for i := range recs {
		count := uint64(1 + i%3)
		recs[i] = hir.Record{Set: addrspace.SetID(i % sets), Counts: count << (i % 16 * hir.CounterBits)}
	}
	return fastestUS(7, func() func() { return func() { h.OnHitBatch(recs) } })
}

// fastestUS calls prepare and times the operation it returns, trials times,
// and reports the fastest in microseconds.
func fastestUS(trials int, prepare func() func()) float64 {
	best := time.Duration(1 << 62)
	for trial := 0; trial < trials; trial++ {
		op := prepare()
		//lint:ignore hpelint/determinism Table VI measures real wall-clock software overhead, best-of-N; results.json and /v1/suite bodies carry it, so golden comparisons skip it (HostTimed)
		start := time.Now()
		op()
		//lint:ignore hpelint/determinism wall-clock pairing for the host-timed Table VI measurement above (HostTimed)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / 1e3
}
