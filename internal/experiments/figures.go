package experiments

import (
	"fmt"
	"strings"

	"hpe/internal/gpu"
	"hpe/internal/stats"
)

// Rates are the paper's two oversubscription rates (Section V).
var Rates = []int{75, 50}

// fig3 reproduces Fig. 3: evictions of LRU and RRIP normalised to the Ideal
// policy at 75% oversubscription.
func fig3(s *Suite, res view) Report {
	tb := stats.NewTable("app", "pattern", "LRU/Ideal", "RRIP/Ideal")
	metrics := map[string]float64{}
	var lruN, rripN []float64
	for _, app := range s.apps {
		ideal := res.Run(app, "ideal", 75)
		lru := res.Run(app, "lru", 75)
		rrip := res.Run(app, "rrip", 75)
		ln := normalise(lru.Evictions, ideal.Evictions)
		rn := normalise(rrip.Evictions, ideal.Evictions)
		lruN = append(lruN, ln)
		rripN = append(rripN, rn)
		tb.AddRowf(app.Abbr, app.Pattern.String(), ln, rn)
		metrics["lru/"+app.Abbr] = ln
		metrics["rrip/"+app.Abbr] = rn
	}
	metrics["lru/mean"] = stats.Mean(lruN)
	metrics["rrip/mean"] = stats.Mean(rripN)
	text := tb.Render() +
		fmt.Sprintf("\nmean LRU/Ideal = %.3f   mean RRIP/Ideal = %.3f\n",
			metrics["lru/mean"], metrics["rrip/mean"])
	return Report{ID: "fig3", Title: "LRU and RRIP evictions normalised to Ideal (75% oversubscription)",
		Text: text, Metrics: metrics}
}

// normalise divides a by b, treating a zero baseline as 1 (both zero) or
// returning the raw count (pathological, flagged by tests).
func normalise(a, b uint64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return float64(a)
	}
	return float64(a) / float64(b)
}

// hpeVsLRU tabulates f(LRU's run, HPE's run) for every app at both rates,
// recording each value as metric key<rate>/<app>, and returns the values per
// rate.
func hpeVsLRU(s *Suite, res view, tb *stats.Table, metrics map[string]float64, key string,
	f func(lru, hpe gpu.Result) float64) map[int][]float64 {
	cols := map[int][]float64{}
	for _, app := range s.apps {
		row := []any{app.Abbr, app.Pattern.String()}
		for _, rate := range Rates {
			v := f(res.Run(app, "lru", rate), res.Run(app, "hpe", rate))
			cols[rate] = append(cols[rate], v)
			metrics[fmt.Sprintf("%s%d/%s", key, rate, app.Abbr)] = v
			row = append(row, v)
		}
		tb.AddRowf(row...)
	}
	return cols
}

// fig10 reproduces Fig. 10: HPE's IPC speedup over LRU at both
// oversubscription rates, per application and averaged.
func fig10(s *Suite, res view) Report {
	tb := stats.NewTable("app", "pattern", "speedup@75%", "speedup@50%")
	metrics := map[string]float64{}
	speedups := hpeVsLRU(s, res, tb, metrics, "speedup", func(lru, hpe gpu.Result) float64 {
		return stats.Speedup(hpe.IPC, lru.IPC) // IPC ratio: HPE over LRU
	})
	for _, rate := range Rates {
		metrics[fmt.Sprintf("mean%d", rate)] = stats.GeoMean(speedups[rate])
		metrics[fmt.Sprintf("amean%d", rate)] = stats.Mean(speedups[rate])
		metrics[fmt.Sprintf("max%d", rate)] = stats.Max(speedups[rate])
	}
	text := tb.Render() + fmt.Sprintf(
		"\ngeomean speedup: %.3fx @75%%, %.3fx @50%%   (arith mean %.3fx / %.3fx; max %.2fx)\n"+
			"paper reports:   1.34x @75%%, 1.16x @50%% (max 2.81x, HSD)\n",
		metrics["mean75"], metrics["mean50"], metrics["amean75"], metrics["amean50"], metrics["max75"])
	return Report{ID: "fig10", Title: "HPE performance vs LRU", Text: text, Metrics: metrics}
}

// fig11 reproduces Fig. 11: HPE's evictions relative to LRU.
func fig11(s *Suite, res view) Report {
	tb := stats.NewTable("app", "pattern", "HPE/LRU@75%", "HPE/LRU@50%")
	metrics := map[string]float64{}
	ratios := hpeVsLRU(s, res, tb, metrics, "ratio", func(lru, hpe gpu.Result) float64 {
		return normalise(hpe.Evictions, lru.Evictions)
	})
	for _, rate := range Rates {
		metrics[fmt.Sprintf("mean%d", rate)] = stats.Mean(ratios[rate])
	}
	text := tb.Render() + fmt.Sprintf(
		"\nmean evictions vs LRU: %.1f%% fewer @75%%, %.1f%% fewer @50%%\n"+
			"paper reports:         18%% fewer @75%%,   12%% fewer @50%%\n",
		(1-metrics["mean75"])*100, (1-metrics["mean50"])*100)
	return Report{ID: "fig11", Title: "HPE evictions vs LRU", Text: text, Metrics: metrics}
}

// fig12 reproduces Fig. 12: every policy's IPC and evictions normalised to
// Ideal at both rates, plus HPE's speedup over each baseline.
func fig12(s *Suite, res view) Report {
	cols := ComparisonPolicies[:len(ComparisonPolicies)-1] // Ideal, the baseline, is last
	header := []string{"app"}
	for _, pol := range cols {
		header = append(header, display(pol))
	}
	metrics := map[string]float64{}
	var b strings.Builder
	for _, rate := range Rates {
		perfTb, evTb := stats.NewTable(header...), stats.NewTable(header...)
		perf := map[string][]float64{}
		evs := map[string][]float64{}
		for _, app := range s.apps {
			ideal := res.Run(app, "ideal", rate)
			prow := []any{app.Abbr}
			erow := []any{app.Abbr}
			for _, pol := range cols {
				r := res.Run(app, pol, rate)
				p := r.IPC / ideal.IPC
				e := normalise(r.Evictions, ideal.Evictions)
				perf[pol] = append(perf[pol], p)
				evs[pol] = append(evs[pol], e)
				prow = append(prow, p)
				erow = append(erow, e)
			}
			perfTb.AddRowf(prow...)
			evTb.AddRowf(erow...)
		}
		fmt.Fprintf(&b, "--- oversubscription %d%% ---\n", rate)
		b.WriteString("(a) IPC normalised to Ideal\n")
		b.WriteString(perfTb.Render())
		b.WriteString("(b) evictions normalised to Ideal\n")
		b.WriteString(evTb.Render())
		hpeMean := stats.GeoMean(perf["hpe"])
		fmt.Fprintf(&b, "means: ")
		for _, pol := range cols {
			pm := stats.GeoMean(perf[pol])
			em := stats.Mean(evs[pol])
			metrics[fmt.Sprintf("perf%d/%s", rate, display(pol))] = pm
			metrics[fmt.Sprintf("ev%d/%s", rate, display(pol))] = em
			fmt.Fprintf(&b, "%s perf %.3f ev %.3f | ", display(pol), pm, em)
			if pol != "hpe" {
				metrics[fmt.Sprintf("hpeSpeedup%d/%s", rate, display(pol))] = hpeMean / pm
			}
		}
		fmt.Fprintf(&b, "\nHPE speedup over: Random %.2fx, RRIP %.2fx, CLOCK-Pro %.2fx, LRU %.2fx\n\n",
			metrics[fmt.Sprintf("hpeSpeedup%d/Random", rate)],
			metrics[fmt.Sprintf("hpeSpeedup%d/RRIP", rate)],
			metrics[fmt.Sprintf("hpeSpeedup%d/CLOCK-Pro", rate)],
			metrics[fmt.Sprintf("hpeSpeedup%d/LRU", rate)])
	}
	b.WriteString("paper reports @75%: HPE within 11% of Ideal, 18% more evictions than Ideal;\n")
	b.WriteString("  speedups 1.16x (random), 1.27x (RRIP), 1.2x (CLOCK-Pro)\n")
	b.WriteString("paper reports @50%: within 11% of Ideal, 16% more evictions;\n")
	b.WriteString("  speedups 1.21x (random), 1.16x (RRIP), 1.15x (CLOCK-Pro)\n")
	return Report{ID: "fig12", Title: "All policies vs Ideal (performance and evictions)",
		Text: b.String(), Metrics: metrics}
}
