// Policy comparison: every policy head-to-head over every Fig. 2 access
// pattern using the fast timing-free replay (demand paging only; HPE runs
// on the timing simulator, which models its hit channel), showing
// where each policy's weakness lives — LRU's thrashing cliff, RRIP's
// instant thrashing, CLOCK-Pro and Random losing Type VI's recency signal.
package main

import (
	"fmt"
	"log"

	"hpe"
	"hpe/internal/addrspace"
	"hpe/internal/workload"
)

func main() {
	patterns := []struct {
		name string
		gen  func(b *workload.Builder)
	}{
		{"Type I  (streaming)", func(b *workload.Builder) { workload.Streaming(b, 100, 1) }},
		{"Type II (thrashing)", func(b *workload.Builder) { workload.Thrashing(b, 100, 4, 1) }},
		{"Type III (part rep.)", func(b *workload.Builder) { workload.PartRepetitive(b, 100, 0.3, 40, 1) }},
		{"Type IV (most rep.)", func(b *workload.Builder) { workload.MostRepetitive(b, 100, 25, 3, 1) }},
		{"Type V  (rep.thrash)", func(b *workload.Builder) {
			workload.RepetitiveThrashing(b, 100, 3, func(s int) int { return 1 + s%2 }, 1)
		}},
		{"Type VI (regions)", func(b *workload.Builder) { workload.RegionMoving(b, 100, 2, 3, 1) }},
	}

	// The synthetic traces reach the RunSpec as "trace:<name>" sources: the
	// env's ReadTrace hook resolves each name to its in-memory trace.
	traces := map[string]*hpe.Trace{}
	env := hpe.WithRunEnv(hpe.RunEnv{ReadTrace: func(name string) (*hpe.Trace, error) {
		return traces[name], nil
	}})
	baselines := []string{"ideal", "lru", "fifo", "random", "rrip", "clockpro"}

	fmt.Printf("%-22s", "pattern (100 sets)")
	for _, name := range append(baselines, "hpe") {
		info, _ := hpe.LookupPolicy(name)
		fmt.Printf(" %9s", info.Display)
	}
	fmt.Println()
	for _, p := range patterns {
		b := workload.NewBuilder(addrspace.DefaultGeometry(), 0x8000, 42)
		p.gen(b)
		traces[p.name] = b.Build(p.name)
		spec := hpe.RunSpec{App: "trace:" + p.name, Rate: 75, Seed: 7}

		fmt.Printf("%-22s", p.name)
		for _, name := range baselines {
			spec.Policy = name
			res, err := hpe.ReplaySpec(spec, env)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %9d", res.Faults)
		}
		// HPE learns from walk hits through its HIR hardware, which only the
		// timing simulator models, so its column comes from Run.
		spec.Policy = "hpe"
		res, err := hpe.Run(spec, env)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf(" %9d\n", res.Faults)
	}
	fmt.Println("\nfault counts at 75% oversubscription; every page is referenced at least")
	fmt.Println("once, so the floor is the footprint (compulsory misses).")
}
