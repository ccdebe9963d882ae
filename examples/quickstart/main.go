// Quickstart: simulate one thrashing workload (hotspot3D, Type II) under
// LRU and under HPE at 75% oversubscription, and print the speedup — the
// paper's headline experiment in ~20 lines.
package main

import (
	"fmt"
	"log"

	"hpe"
)

func main() {
	// A RunSpec names one result: workload, eviction policy, and the
	// oversubscription rate (75%: only three quarters of the footprint fits).
	lru, err := hpe.Run(hpe.RunSpec{App: "HSD", Policy: "lru", Rate: 75})
	if err != nil {
		log.Fatal(err)
	}
	hp, err := hpe.Run(hpe.RunSpec{App: "HSD", Policy: "hpe", Rate: 75})
	if err != nil {
		log.Fatal(err)
	}

	app, _ := hpe.WorkloadByAbbr("HSD")
	fmt.Printf("workload: %s at 75%% oversubscription\n", app)
	fmt.Printf("LRU: %v\n", lru)
	fmt.Printf("HPE: %v\n", hp)
	fmt.Printf("HPE speedup over LRU: %.2fx (%.0f%% fewer evictions)\n",
		hp.IPC/lru.IPC, (1-float64(hp.Evictions)/float64(lru.Evictions))*100)

	if st, ok := hpe.HPEStatsOf(hp); ok {
		fmt.Printf("HPE classified the app as %v and used %v\n", st.Category, st.ActiveStrategy)
	}
}
