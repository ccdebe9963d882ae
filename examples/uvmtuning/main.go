// UVM tuning: the extension studies in one place — what a *runtime* (rather
// than a policy) can do about the fault wall. Sweeps fault-block prefetching
// and driver pipelining on one workload, under LRU and under HPE, showing
// that runtime-level and policy-level improvements compose.
package main

import (
	"fmt"
	"log"
	"os"

	"hpe"
)

func main() {
	abbr := "BFS"
	if len(os.Args) > 1 {
		abbr = os.Args[1]
	}
	app, ok := hpe.WorkloadByAbbr(abbr)
	if !ok {
		log.Fatalf("unknown workload %q", abbr)
	}
	fmt.Printf("%s at 75%% oversubscription\n\n", app)

	var base hpe.Result
	fmt.Printf("%-28s %12s %12s %10s\n", "configuration", "faults", "cycles", "speedup")
	for i, c := range []struct {
		name     string
		policy   string
		prefetch int
		channels int
	}{
		{"LRU (paper baseline)", "lru", 0, 1},
		{"LRU + prefetch 15", "lru", 15, 1},
		{"LRU + 4 channels", "lru", 0, 4},
		{"HPE (paper)", "hpe", 0, 1},
		{"HPE + prefetch 15", "hpe", 15, 1},
		{"HPE + 4 channels", "hpe", 0, 4},
		{"HPE + both", "hpe", 15, 4},
	} {
		res, err := hpe.Run(hpe.RunSpec{
			App: abbr, Policy: c.policy, Rate: 75,
			Prefetch: c.prefetch, Channels: c.channels,
		})
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			base = res
		}
		fmt.Printf("%-28s %12d %12d %9.2fx\n",
			c.name, res.Faults, res.Cycles, float64(base.Cycles)/float64(res.Cycles))
	}
	fmt.Println("\nprefetching collapses the per-page fault storm (runtime-level);")
	fmt.Println("HPE reduces how many of those faults exist at all (policy-level);")
	fmt.Println("pipelined servicing hides queueing delay. The three compose.")
}
