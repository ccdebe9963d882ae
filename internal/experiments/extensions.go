package experiments

import (
	"fmt"
	"slices"

	"hpe/internal/stats"
	"hpe/internal/workload"
)

// Extension experiments: studies beyond the paper's figure set, built on the
// same substrate. They cover the related-work policies the paper names but
// does not plot (CLOCK, NRU, ARC, FIFO, LFU), a full oversubscription sweep,
// and the "relaxed division requirement" remark of §V-B.

// extendedPolicies are ext's columns: LRU, the related-work policies in
// catalog order of pedigree, and HPE.
var extendedPolicies = []string{"lru", "fifo", "lfu", "clock", "nru", "arc", "hpe"}

// ext compares the related-work policies against LRU, HPE and Ideal at 75%
// oversubscription. Every policy — including the extension set — builds
// through the registry, so this is a plain matrix over policy names.
func ext(s *Suite, res view) Report {
	header := []string{"app"}
	for _, p := range extendedPolicies {
		header = append(header, display(p))
	}
	tb := stats.NewTable(append(header, "Ideal=1.0")...)
	norms := make([][]float64, len(extendedPolicies))
	for _, app := range s.apps {
		ideal := res.Run(app, "ideal", 75)
		row := []any{app.Abbr}
		for i, p := range extendedPolicies {
			norm := normalise(res.Run(app, p, 75).Evictions, ideal.Evictions)
			row = append(row, norm)
			norms[i] = append(norms[i], norm)
		}
		tb.AddRowf(append(row, 1.0)...)
	}
	metrics := map[string]float64{}
	text := tb.Render() + "\nmean evictions vs Ideal: "
	for i, name := range header[1:] {
		m := stats.Mean(norms[i])
		metrics["mean/"+name] = m
		text += fmt.Sprintf("%s %.2f  ", name, m)
	}
	text += "\nCLOCK and NRU track LRU (they approximate it); LFU's pure frequency\n" +
		"fails the moving patterns; ARC needs resident hits to bootstrap and cannot\n" +
		"rescue pure cyclic thrash — the gap HPE (and CLOCK-Pro) target.\n"
	return Report{ID: "ext", Title: "Extended policy comparison (related-work policies)", Text: text, Metrics: metrics}
}

// SweepRates are the oversubscription points of the extension sweep.
var SweepRates = []int{90, 75, 60, 50, 40}

// sweep measures LRU, HPE and Ideal across a finer oversubscription range
// than the paper's two points, reporting the geomean slowdown versus the
// 100% (compulsory-only) run of each app.
func sweep(s *Suite, res view) Report {
	tb := stats.NewTable("rate", "LRU slowdown", "HPE slowdown", "Ideal slowdown", "HPE/LRU speedup")
	metrics := map[string]float64{}
	for _, rate := range SweepRates {
		var lruS, hpeS, idealS, sp []float64
		for _, app := range s.apps {
			lru := res.Run(app, "lru", rate)
			hp := res.Run(app, "hpe", rate)
			ideal := res.Run(app, "ideal", rate)
			b := res.Run(app, "lru", 100).IPC // compulsory-only; policy-independent
			lruS = append(lruS, b/lru.IPC)
			hpeS = append(hpeS, b/hp.IPC)
			idealS = append(idealS, b/ideal.IPC)
			sp = append(sp, hp.IPC/lru.IPC)
		}
		l, h, id, v := stats.GeoMean(lruS), stats.GeoMean(hpeS), stats.GeoMean(idealS), stats.GeoMean(sp)
		metrics[fmt.Sprintf("lru/%d", rate)] = l
		metrics[fmt.Sprintf("hpe/%d", rate)] = h
		metrics[fmt.Sprintf("ideal/%d", rate)] = id
		metrics[fmt.Sprintf("speedup/%d", rate)] = v
		tb.AddRow(fmt.Sprintf("%d%%", rate), fmt.Sprintf("%.2fx", l), fmt.Sprintf("%.2fx", h),
			fmt.Sprintf("%.2fx", id), fmt.Sprintf("%.3fx", v))
	}
	text := tb.Render() + "\nslowdowns are geomean vs each app's compulsory-only (100%) run; the gap\n" +
		"between HPE and Ideal is the remaining headroom for online policies.\n"
	return Report{ID: "sweep", Title: "Oversubscription sweep (extension)", Text: text, Metrics: metrics}
}

// divisionLabels head the division study's columns (divisionVariants).
var divisionLabels = []string{"divide@64 (paper)", "divide@48", "divide@32", "no division"}

// divisionApps are the division-sensitive apps (NW, MVT) the suite covers.
func divisionApps(s *Suite) []workload.App {
	return slices.DeleteFunc(slices.Clone(s.apps), func(a workload.App) bool { return a.Abbr != "NW" && a.Abbr != "MVT" })
}

// division implements §V-B's remark that relaxing the division requirement
// improves NW: it sweeps the division-check threshold on the
// division-sensitive apps.
func division(s *Suite, res view) Report {
	tb := stats.NewTable(append([]string{"app@rate"}, divisionLabels...)...)
	metrics := map[string]float64{}
	for _, app := range divisionApps(s) {
		for _, rate := range Rates {
			row := []any{fmt.Sprintf("%s@%d%%", app.Abbr, rate)}
			for i, v := range divisionVariants {
				r := res.Run(app, "hpe", rate, v)
				row = append(row, fmt.Sprintf("%d", r.Faults))
				key := divisionLabels[i]
				if i == len(divisionLabels)-1 {
					key = "off" // the "no division" column's metric key
				}
				metrics[fmt.Sprintf("faults%d/%s/%s", rate, app.Abbr, key)] = float64(r.Faults)
			}
			tb.AddRowf(row...)
		}
	}
	text := tb.Render() + "\npaper (§V-B): \"if more page sets are divided by relaxing the division\n" +
		"requirement, the performance of NW can be improved\". Fault counts above\n" +
		"quantify that remark on the division-sensitive workloads.\n"
	return Report{ID: "division", Title: "Page-set division threshold study (§V-B remark)", Text: text, Metrics: metrics}
}

// channels sweeps the driver's fault-service parallelism (extension): how
// much of the oversubscription wall is queueing delay at the serial driver
// rather than eviction quality. LRU and HPE at 75% oversubscription, 1–8
// channels, geomean IPC normalised to the serial driver.
func channels(s *Suite, res view) Report {
	tb, metrics := normalisedStudy(s, res, channelCounts, withChannels, "1 ch", "2 ch", "4 ch", "8 ch")
	text := tb.Render() + "\na pipelined driver attacks the queueing half of the fault wall; better\n" +
		"eviction (HPE) attacks the fault-count half — the two compose.\n"
	return Report{ID: "channels", Title: "Driver fault-service parallelism (extension)", Text: text, Metrics: metrics}
}

// normalisedStudy reads LRU and HPE at 75% under each variant value and
// tabulates the geomean over apps of IPC normalised to the first (default)
// value, with metrics keyed policy/value.
func normalisedStudy(s *Suite, res view, vals []int, variant func(int) tweak, columns ...string) (*stats.Table, map[string]float64) {
	tb := stats.NewTable(append([]string{"policy"}, columns...)...)
	metrics := map[string]float64{}
	for _, pol := range lruHPE {
		row := []any{display(pol)}
		for _, v := range vals {
			var norms []float64
			for _, app := range s.apps {
				base := res.Run(app, pol, 75, variant(vals[0])).IPC
				norms = append(norms, res.Run(app, pol, 75, variant(v)).IPC/base)
			}
			g := stats.GeoMean(norms)
			metrics[fmt.Sprintf("%s/%d", display(pol), v)] = g
			row = append(row, g)
		}
		tb.AddRowf(row...)
	}
	return tb, metrics
}

// translation reproduces the paper's §II design choice as an experiment:
// the adopted shared-L2-TLB design versus the rejected page-walk-cache
// design (Power et al.). The comparison runs with the footprint
// prepopulated: under demand paging the 20 µs fault wall hides nanosecond
// translation latencies, so the designs only separate when translation is
// on the critical path.
func translation(s *Suite, res view) Report {
	tb := stats.NewTable("app", "L2TLB IPC", "PWC IPC", "PWC/L2TLB", "PWC mean levels/walk")
	metrics := map[string]float64{}
	var ratios []float64
	for _, app := range s.apps {
		l2 := res.Run(app, "lru", 100, prepopulated)
		pwc := res.Run(app, "lru", 100, pwcDesign)
		ratio := pwc.IPC / l2.IPC
		ratios = append(ratios, ratio)
		metrics["ratio/"+app.Abbr] = ratio
		levels := 0.0
		if pwc.PTW != nil {
			levels = pwc.PTW.MeanLevels
		}
		tb.AddRow(app.Abbr, fmt.Sprintf("%.5f", l2.IPC), fmt.Sprintf("%.5f", pwc.IPC),
			fmt.Sprintf("%.3f", ratio), fmt.Sprintf("%.2f", levels))
	}
	g := stats.GeoMean(ratios)
	metrics["geomean"] = g
	text := tb.Render() + fmt.Sprintf("\ngeomean PWC/L2TLB = %.3f\n"+
		"paper (§II): \"we adopt the second design [shared L2 TLB] due to better\n"+
		"performance than the first [shared page-walk cache]\" — the ratio above\n"+
		"quantifies that choice on this substrate.\n", g)
	return Report{ID: "translation", Title: "Address-translation design study (§II)", Text: text, Metrics: metrics}
}

// prefetch measures UVM-style fault-block prefetching (an extension beyond
// the paper; real unified-memory runtimes migrate 64-KB blocks): LRU and
// HPE at 75% with 0/3/7/15 prefetched pages per fault.
func prefetch(s *Suite, res view) Report {
	tb, metrics := normalisedStudy(s, res, prefetchDepths, withPrefetch, "pf=0", "pf=3", "pf=7", "pf=15")
	text := tb.Render() + "\ngeomean IPC normalised to no prefetching. Block prefetching collapses the\n" +
		"per-page fault storm of spatially dense workloads (most of the catalog);\n" +
		"eviction quality still decides what survives under oversubscription.\n"
	return Report{ID: "prefetch", Title: "Fault-block prefetching study (extension)", Text: text, Metrics: metrics}
}

// datapath turns on the full Table I memory hierarchy (per-SM L1D, shared
// L2, GDDR5 channels with row buffers) and reports its behaviour per
// pattern type, prepopulated so the data path is the critical path. The
// reproduction's default configuration leaves the data path off: the
// paper's results are fault-driven and data microtiming would only add
// noise there — this study demonstrates the substrate is nonetheless
// complete.
func datapath(s *Suite, res view) Report {
	tb := stats.NewTable("app", "L1D hit", "L2D hit", "DRAM row hit", "IPC slowdown vs no-datapath")
	metrics := map[string]float64{}
	var slows []float64
	for _, app := range s.apps {
		base := res.Run(app, "lru", 100, prepopulated)
		dp := res.Run(app, "lru", 100, dataPath)
		l1 := rate(dp.DataL1Hits, dp.DataL1Misses)
		l2 := rate(dp.DataL2Hits, dp.DataL2Misses)
		row := 0.0
		if dp.DRAM != nil {
			row = dp.DRAM.RowHitRate
		}
		slow := base.IPC / dp.IPC
		slows = append(slows, slow)
		metrics["slow/"+app.Abbr] = slow
		metrics["l1d/"+app.Abbr] = l1
		tb.AddRow(app.Abbr, pct(l1), pct(l2), pct(row), fmt.Sprintf("%.2fx", slow))
	}
	g := stats.GeoMean(slows)
	metrics["geomean"] = g
	text := tb.Render() + fmt.Sprintf("\ngeomean slowdown from modelling the data hierarchy: %.2fx (prepopulated\n"+
		"runs; under demand paging the 20 µs fault wall dwarfs these latencies,\n"+
		"which is why the calibrated reproduction leaves the data path off).\n", g)
	return Report{ID: "datapath", Title: "Table I data-hierarchy study (extension)", Text: text, Metrics: metrics}
}

func rate(h, m uint64) float64 {
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// hirsize reproduces the §IV-B sizing claim: "an 8-way associative HIR with
// 1024 entries avoids way conflicts in the simulations for most
// applications (except MVT)". It sweeps the HIR capacity at fixed 8-way
// associativity and reports dropped hits (conflicts) and the IPC cost.
func hirsize(s *Suite, res view) Report {
	tb := stats.NewTable("app", "conflicts@128", "@256", "@512", "@1024 (paper)", "IPC 128/1024")
	metrics := map[string]float64{}
	for _, app := range s.apps {
		row := []any{app.Abbr}
		for _, entries := range hirSizes {
			r := res.Run(app, "hpe", 75, hirEntries(entries))
			conflicts := uint64(0)
			if r.HIR != nil {
				conflicts = r.HIR.Conflicts
			}
			metrics[fmt.Sprintf("conflicts%d/%s", entries, app.Abbr)] = float64(conflicts)
			row = append(row, conflicts)
		}
		ratio := 1.0
		if ipc1024 := res.Run(app, "hpe", 75, hirEntries(1024)).IPC; ipc1024 > 0 {
			ratio = res.Run(app, "hpe", 75, hirEntries(128)).IPC / ipc1024
		}
		metrics["ipcRatio/"+app.Abbr] = ratio
		row = append(row, fmt.Sprintf("%.3f", ratio))
		tb.AddRowf(row...)
	}
	text := tb.Render() + "\npaper (§IV-B): 1024 entries × 8 ways eliminates way conflicts for most\n" +
		"applications — reproduced: zero conflicts across the catalog at 1024.\n" +
		"Undersized HIRs drop hits for the busiest apps (BFS, MVT first); the\n" +
		"lost information perturbs classification and adjustment rather than\n" +
		"costing IPC directly (BFS at 128 entries happens to profit).\n"
	return Report{ID: "hirsize", Title: "HIR capacity sensitivity (§IV-B sizing claim)", Text: text, Metrics: metrics}
}
