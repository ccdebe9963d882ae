package experiments

import (
	"fmt"
	"math"
	"strings"

	"hpe/internal/hpe"
	"hpe/internal/stats"
)

// fig9 reproduces Fig. 9: ratio₁ and ratio₂ of every application, computed
// by HPE when the GPU memory first fills at 75% oversubscription, together
// with the resulting classification.
func fig9(s *Suite, res view) Report {
	tb := stats.NewTable("app", "pattern", "ratio1", "ratio2", "category", "strategy@start")
	metrics := map[string]float64{}
	for _, app := range s.apps {
		r := res.Run(app, "hpe", 75)
		if r.HPE == nil || !r.HPE.Classified {
			tb.AddRow(app.Abbr, app.Pattern.String(), "-", "-", "never full", "-")
			continue
		}
		st := r.HPE
		tb.AddRow(app.Abbr, app.Pattern.String(),
			fmtRatio(st.Ratios.Ratio1), fmtRatio(st.Ratios.Ratio2),
			st.Category.String(), initialStrategyName(st))
		metrics["ratio1/"+app.Abbr] = st.Ratios.Ratio1
		metrics["ratio2/"+app.Abbr] = st.Ratios.Ratio2
		metrics["category/"+app.Abbr] = float64(st.Category)
	}
	text := tb.Render() + "\npaper: Types I–III have small ratios (KMN, SAD outliers with large ratio1);\n" +
		"Types IV–VI have large ratio1 or ratio2 (SGM outlier with small ratio1)\n"
	return Report{ID: "fig9", Title: "ratio1 and ratio2 of selected applications", Text: text, Metrics: metrics}
}

func fmtRatio(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.3f", v)
}

func initialStrategyName(st *hpe.Stats) string {
	if len(st.Timeline) == 0 {
		return "-"
	}
	return st.Timeline[0].Strategy.String()
}

// fig13 reproduces Fig. 13: the per-application breakdown of which eviction
// strategy HPE used over time, at both oversubscription rates, including
// search-point jumps.
func fig13(s *Suite, res view) Report {
	tb := stats.NewTable("app@rate", "category", "LRU share", "MRU-C share", "switches", "jumps", "timeline")
	metrics := map[string]float64{}
	for _, app := range s.apps {
		for _, rate := range Rates {
			r := res.Run(app, "hpe", rate)
			label := fmt.Sprintf("%s@%d%%", app.Abbr, rate)
			if r.HPE == nil || !r.HPE.Classified {
				tb.AddRow(label, "never full", "-", "-", "-", "-", "-")
				continue
			}
			st := r.HPE
			lruShare := st.StrategyShare(hpe.StrategyLRU)
			mrucShare := st.StrategyShare(hpe.StrategyMRUC)
			tb.AddRow(label, st.Category.String(),
				fmt.Sprintf("%.2f", lruShare), fmt.Sprintf("%.2f", mrucShare),
				fmt.Sprint(st.Switches), fmt.Sprint(len(st.Jumps)), timelineString(st))
			metrics[fmt.Sprintf("lruShare%d/%s", rate, app.Abbr)] = lruShare
			metrics[fmt.Sprintf("switches%d/%s", rate, app.Abbr)] = float64(st.Switches)
			metrics[fmt.Sprintf("jumps%d/%s", rate, app.Abbr)] = float64(len(st.Jumps))
		}
	}
	text := tb.Render() + "\npaper: KMN, NW, B+T, HYB, SPV, MVT use LRU throughout; HOT, BKP, PAT, LEU,\n" +
		"CUT, MRQ, STN, 2DC, GEM use MRU-C throughout; SRD, BFS, SAD, HIS adjust at both\n" +
		"rates; DWT, HSD, SGM adjust only at 50%\n"
	return Report{ID: "fig13", Title: "Eviction-strategy adjustment breakdown", Text: text, Metrics: metrics}
}

func timelineString(st *hpe.Stats) string {
	var parts []string
	for _, span := range st.Timeline {
		parts = append(parts, fmt.Sprintf("%s[%d,%d)", span.Strategy, span.FromFault, span.ToFault))
	}
	out := strings.Join(parts, "→")
	if len(out) > 48 {
		out = out[:45] + "..."
	}
	return out
}

// fig14 reproduces Fig. 14: the average number of chain comparisons per
// MRU-C victim search. Applications that used LRU for their entire
// execution are omitted, as in the paper.
func fig14(s *Suite, res view) Report {
	tb := stats.NewTable("app@rate", "searches", "avg comparisons")
	metrics := map[string]float64{}
	var all []float64
	for _, app := range s.apps {
		for _, rate := range Rates {
			r := res.Run(app, "hpe", rate)
			if r.HPE == nil || r.HPE.Searches == 0 {
				continue // pure-LRU app: omitted like the paper
			}
			mc := r.HPE.MeanComparisons
			tb.AddRow(fmt.Sprintf("%s@%d%%", app.Abbr, rate),
				fmt.Sprint(r.HPE.Searches), fmt.Sprintf("%.1f", mc))
			metrics[fmt.Sprintf("cmp%d/%s", rate, app.Abbr)] = mc
			all = append(all, mc)
		}
	}
	metrics["mean"] = stats.Mean(all)
	metrics["max"] = stats.Max(all)
	text := tb.Render() + fmt.Sprintf("\nmean %.1f comparisons/search (max %.1f)\n"+
		"paper: typically < 50 comparisons, with BFS and HIS as outliers\n",
		metrics["mean"], metrics["max"])
	return Report{ID: "fig14", Title: "Average MRU-C search overhead", Text: text, Metrics: metrics}
}

// fig15 reproduces Fig. 15: the average number of HIR entries transferred
// per drain, per application.
func fig15(s *Suite, res view) Report {
	tb := stats.NewTable("app", "drains", "avg entries/transfer", "max entries", "conflicts")
	metrics := map[string]float64{}
	for _, app := range s.apps {
		r := res.Run(app, "hpe", 75)
		if r.HIR == nil {
			continue
		}
		st := r.HIR
		tb.AddRow(app.Abbr, fmt.Sprint(st.Drains), fmt.Sprintf("%.1f", st.MeanNonEmpty),
			fmt.Sprint(st.MaxDrained), fmt.Sprint(st.Conflicts))
		metrics["mean/"+app.Abbr] = st.MeanNonEmpty
		metrics["conflicts/"+app.Abbr] = float64(st.Conflicts)
	}
	text := tb.Render() + "\npaper: typically fewer than ten entries per transfer; MVT the outlier (139)\n"
	return Report{ID: "fig15", Title: "Average HIR entries transferred per drain", Text: text, Metrics: metrics}
}
