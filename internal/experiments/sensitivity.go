package experiments

import (
	"fmt"
	"math"

	"hpe/internal/stats"
	"hpe/internal/workload"
)

// fig7 reproduces Fig. 7: HPE's sensitivity to the page-set size, reported
// as the average IPC per pattern type normalised to size 8, at 75%
// oversubscription.
func fig7(s *Suite, res view) Report {
	return sensitivityReport(s, res, "fig7", "Sensitivity to page-set size (normalised to size 8)",
		[]string{"size 8", "size 16", "size 32"}, fig7Variants)
}

// fig8 reproduces Fig. 8: sensitivity to the interval length, normalised to
// interval 32.
func fig8(s *Suite, res view) Report {
	return sensitivityReport(s, res, "fig8", "Sensitivity to interval length (normalised to 32)",
		[]string{"interval 32", "interval 64", "interval 128"}, fig8Variants)
}

// sensitivityReport reads three HPE variants at 75% over every app and
// reports average IPC per pattern type, normalised to the first variant.
func sensitivityReport(s *Suite, res view, id, title string, labels []string, variants []tweak) Report {
	tb := stats.NewTable(append([]string{"pattern"}, labels...)...)
	metrics := map[string]float64{}
	byType := map[workload.PatternType][][]float64{} // pattern → variant → IPCs
	for _, app := range s.apps {
		if byType[app.Pattern] == nil {
			byType[app.Pattern] = make([][]float64, len(variants))
		}
		for v, tw := range variants {
			byType[app.Pattern][v] = append(byType[app.Pattern][v], res.Run(app, "hpe", 75, tw).IPC)
		}
	}
	var spreadMax float64
	for _, pt := range workload.PatternTypes() {
		ipcs, ok := byType[pt]
		if !ok {
			continue
		}
		base := stats.Mean(ipcs[0])
		row := []any{pt.String()}
		for v := range ipcs {
			norm := stats.Mean(ipcs[v]) / base
			row = append(row, norm)
			metrics[fmt.Sprintf("%s/v%d", pt, v)] = norm
			if d := math.Abs(norm - 1); d > spreadMax {
				spreadMax = d
			}
		}
		tb.AddRowf(row...)
	}
	metrics["maxSpread"] = spreadMax
	text := tb.Render() + fmt.Sprintf("\nmax deviation from baseline: %.1f%%\n"+
		"paper: variants differ by at most ~10–12%%\n", spreadMax*100)
	return Report{ID: id, Title: title, Text: text, Metrics: metrics}
}

// transfer reproduces the §V-A transfer-interval sensitivity test: full HPE
// (HIR + adjustment) with the hit-information transfer every 1, 8, 16, 32
// and 64 page faults; mean IPC normalised to the paper's choice (16).
func transfer(s *Suite, res view) Report {
	tb := stats.NewTable("transfer interval", "geomean IPC vs t=16", "mean HIR cycles/run")
	metrics := map[string]float64{}
	for _, iv := range transferIntervals {
		var norms []float64
		var hirCycles []float64
		for _, app := range s.apps {
			r := res.Run(app, "hpe", 75, transferEvery(iv))
			norms = append(norms, r.IPC/res.Run(app, "hpe", 75).IPC)
			hirCycles = append(hirCycles, float64(r.Driver.HIRTransferCycles))
		}
		g := stats.GeoMean(norms)
		metrics[fmt.Sprintf("norm/%d", iv)] = g
		tb.AddRow(fmt.Sprint(iv), fmt.Sprintf("%.4f", g), fmt.Sprintf("%.0f", stats.Mean(hirCycles)))
	}
	text := tb.Render() + "\npaper: 16 makes the best tradeoff between frequency and performance\n"
	return Report{ID: "transfer", Title: "Transfer-interval sensitivity (§V-A)", Text: text, Metrics: metrics}
}

// walklat reproduces the §V-B page-walk-latency study: LRU and HPE at walk
// latencies of 8 and 20 cycles.
func walklat(s *Suite, res view) Report {
	tb := stats.NewTable("policy", "geomean IPC walk=8", "geomean IPC walk=20", "delta")
	metrics := map[string]float64{}
	for _, pol := range lruHPE {
		var ipc8, ipc20 []float64
		for _, app := range s.apps {
			ipc8 = append(ipc8, res.Run(app, pol, 75).IPC)
			ipc20 = append(ipc20, res.Run(app, pol, 75, walk20).IPC)
		}
		g8, g20 := stats.GeoMean(ipc8), stats.GeoMean(ipc20)
		delta := (g20 - g8) / g8
		metrics[fmt.Sprintf("delta/%s", display(pol))] = delta
		tb.AddRow(display(pol), fmt.Sprintf("%.4f", g8), fmt.Sprintf("%.4f", g20),
			fmt.Sprintf("%+.2f%%", delta*100))
	}
	text := tb.Render() + "\npaper: minimal performance difference between 8 and 20 cycles\n"
	return Report{ID: "walklat", Title: "Page-walk-latency sensitivity (§V-B)", Text: text, Metrics: metrics}
}
