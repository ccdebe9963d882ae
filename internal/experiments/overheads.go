package experiments

import (
	"fmt"
	"strings"
	"time"

	"hpe/internal/addrspace"
	"hpe/internal/hir"
	"hpe/internal/hpe"
	"hpe/internal/stats"
)

// Overheads reproduces the §V-C overhead analysis: HIR storage cost, the
// wall-clock cost of classification and chain updates (measured on the host
// running this reproduction, mirroring the paper's own wall-clock
// methodology), and the host-CPU core-load estimate per policy.
func (s *Suite) Overheads() Report {
	var b strings.Builder
	metrics := map[string]float64{}

	// --- HIR storage (paper: 80-bit entries, 10 KB total, 4.2% of 240 KB
	// of L1 data cache across SMs).
	h := hir.New(hir.DefaultConfig())
	storage := h.StorageBytes()
	l1DataTotal := 15 * 16 * 1024 // Table I: 16 KB L1 per SM × 15 SMs
	metrics["hirBytes"] = float64(storage)
	fmt.Fprintf(&b, "HIR storage: %d bytes/entry, %d KB total = %.1f%% of all SMs' L1 data cache (%d KB)\n",
		h.TransferBytes(1), storage/1024, float64(storage)/float64(l1DataTotal)*100, l1DataTotal/1024)
	fmt.Fprintf(&b, "  paper: 10 B/entry, 10 KB, 4.2%% of 240 KB\n\n")

	// --- Classification cost: wall-clock time to classify a KMN-sized
	// chain (the largest footprint, as the paper chose).
	classifyUS := measureClassification(8192 / 16)
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
	for _, pol := range []string{"lru", "rrip", "clockpro", "hpe"} {
		row := []string{display(pol)}
		for _, rate := range Rates {
			var loads []float64
			for _, app := range s.apps {
				r := s.Run(app, pol, rate)
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
// of `sets` page sets, in microseconds (median of several trials).
func measureClassification(sets int) float64 {
	best := time.Duration(1 << 62)
	for trial := 0; trial < 5; trial++ {
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
		//lint:ignore hpelint/determinism Table VI measures real wall-clock software overhead; the figure is labelled best-of-N and never feeds golden output
		start := time.Now()
		h.SelectVictim() // triggers the one-time classification
		//lint:ignore hpelint/determinism wall-clock pairing for the Table VI overhead measurement above
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / 1e3
}

// measureChainUpdate times the application of an HIR drain of `records`
// records to a chain of `sets` sets, in microseconds.
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
		counts := make([]uint8, 16)
		counts[i%16] = uint8(1 + i%3)
		recs[i] = hir.Record{Set: addrspace.SetID(i % sets), Counts: counts}
	}
	best := time.Duration(1 << 62)
	for trial := 0; trial < 7; trial++ {
		//lint:ignore hpelint/determinism Table VI measures real wall-clock software overhead; the figure is labelled best-of-N and never feeds golden output
		start := time.Now()
		h.OnHitBatch(recs)
		//lint:ignore hpelint/determinism wall-clock pairing for the Table VI overhead measurement above
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / 1e3
}

// table lists every experiment once, in report order: the paper's own
// tables and figures (paper true) in paper order, then the studies beyond
// the paper.
var table = []struct {
	id    string
	paper bool
	fn    func(*Suite) Report
}{
	{"table1", true, (*Suite).Table1},
	{"table2", true, (*Suite).Table2},
	{"fig3", true, (*Suite).Fig3},
	{"fig7", true, (*Suite).Fig7},
	{"fig8", true, (*Suite).Fig8},
	{"fig9", true, (*Suite).Fig9},
	{"fig10", true, (*Suite).Fig10},
	{"fig11", true, (*Suite).Fig11},
	{"fig12", true, (*Suite).Fig12},
	{"fig13", true, (*Suite).Fig13},
	{"fig14", true, (*Suite).Fig14},
	{"fig15", true, (*Suite).Fig15},
	{"transfer", true, (*Suite).TransferInterval},
	{"walklat", true, (*Suite).WalkLatency},
	{"overhead", true, (*Suite).Overheads},
	{"ext", false, (*Suite).ExtendedPolicies},
	{"sweep", false, (*Suite).OversubscriptionSweep},
	{"division", false, (*Suite).DivisionStudy},
	{"channels", false, (*Suite).ChannelStudy},
	{"translation", false, (*Suite).TranslationStudy},
	{"prefetch", false, (*Suite).PrefetchStudy},
	{"datapath", false, (*Suite).DataPathStudy},
	{"hirsize", false, (*Suite).HIRSizeStudy},
	{"temporal", false, (*Suite).TemporalStudy},
	{"colocation", false, (*Suite).ColocationStudy},
}

// All runs every paper experiment in paper order (concurrently when
// Options.Workers > 1; output is identical either way).
func (s *Suite) All() []Report {
	var ids []string
	for _, e := range table {
		if e.paper {
			ids = append(ids, e.id)
		}
	}
	reps, err := s.Reports(ids)
	if err != nil {
		panic(err) // every table ID resolves; unreachable
	}
	return reps
}

// experiment resolves an ID to its (unexecuted) experiment function.
func (s *Suite) experiment(id string) (func() Report, bool) {
	for _, e := range table {
		if e.id == id {
			return func() Report { return e.fn(s) }, true
		}
	}
	return nil, false
}

// ByID returns the experiment with the given ID, or false.
func (s *Suite) ByID(id string) (Report, bool) {
	fn, ok := s.experiment(id)
	if !ok {
		return Report{}, false
	}
	return fn(), true
}

// IDs lists all experiment identifiers: the paper's set in paper order,
// then the extensions.
func IDs() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.id
	}
	return out
}
