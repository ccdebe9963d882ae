// Pattern explorer: generates each Table II application, profiles its
// reference string, and shows what HPE's statistics classifier (Table III)
// concludes about it — the Fig. 2 / Fig. 9 story end to end.
package main

import (
	"fmt"
	"log"

	"hpe"
	"hpe/internal/addrspace"
	"hpe/internal/trace"
)

func main() {
	fmt.Printf("%-9s %-4s %-11s %8s %7s %9s   %-11s %s\n",
		"pattern", "app", "suite", "pages", "MB", "refs", "category", "ratio1/ratio2")
	for _, pt := range []hpe.PatternType{
		hpe.PatternStreaming, hpe.PatternThrashing, hpe.PatternPartRepetitive,
		hpe.PatternMostRepetitive, hpe.PatternRepetitiveThrashing, hpe.PatternRegionMoving,
	} {
		for _, app := range hpe.WorkloadsByPattern(pt) {
			tr := app.Generate()
			p := trace.Profiler(tr, addrspace.DefaultGeometry())

			// Run the real simulator long enough for HPE to classify.
			res, err := hpe.Run(hpe.RunSpec{App: app.Abbr, Policy: "hpe", Rate: 75})
			if err != nil {
				log.Fatal(err)
			}

			cat, ratios := "never full", ""
			if st, ok := hpe.HPEStatsOf(res); ok && st.Classified {
				cat = st.Category.String()
				ratios = fmt.Sprintf("%.2f / %.2f", st.Ratios.Ratio1, st.Ratios.Ratio2)
			}
			fmt.Printf("%-9s %-4s %-11s %8d %7.1f %9d   %-11s %s\n",
				pt, app.Abbr, app.Suite, p.Footprint,
				float64(p.FootprintBytes)/(1<<20), p.Refs, cat, ratios)
		}
	}
	fmt.Println("\nregular apps start on MRU-C; irregular ones on LRU (Table III / §IV-D).")
	fmt.Println("compare with the paper's Fig. 9 scatter of ratio1/ratio2.")
}
