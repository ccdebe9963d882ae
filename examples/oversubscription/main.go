// Oversubscription sweep: how each eviction policy degrades as the GPU
// memory shrinks from 100% of the footprint down to 40% — the motivating
// scenario of the paper's introduction (computing across datasets that
// exceed GPU memory capacity).
//
// Run with an optional workload abbreviation: `go run ./examples/oversubscription BFS`
package main

import (
	"fmt"
	"log"
	"os"

	"hpe"
)

func main() {
	abbr := "SRD"
	if len(os.Args) > 1 {
		abbr = os.Args[1]
	}
	app, ok := hpe.WorkloadByAbbr(abbr)
	if !ok {
		log.Fatalf("unknown workload %q", abbr)
	}
	tr := app.Generate()
	fmt.Printf("%s: %d pages footprint, %d references\n\n", app, tr.Footprint(), tr.Len())
	// Every run below simulates this one trace; the env spares each Run a
	// regeneration.
	env := hpe.WithRunEnv(hpe.RunEnv{Trace: func(hpe.App) *hpe.Trace { return tr }})

	policies := []string{"lru", "random", "clockpro", "ideal", "hpe"}
	fmt.Printf("%-6s", "rate")
	for _, name := range policies {
		info, _ := hpe.LookupPolicy(name)
		fmt.Printf("  %12s", info.Display)
	}
	fmt.Println("   (faults; lower is better)")
	for _, rate := range []int{100, 90, 75, 60, 50, 40} {
		fmt.Printf("%3d%%  ", rate)
		for _, name := range policies {
			res, err := hpe.Run(hpe.RunSpec{App: abbr, Policy: name, Rate: rate}, env)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %12d", res.Faults)
		}
		fmt.Println()
	}
	fmt.Println("\nAt 100% everything faults exactly once per page (compulsory misses).")
	fmt.Println("Below that, the gap between a policy's column and Ideal's is pure")
	fmt.Println("eviction-decision quality; the paper's Fig. 10–12 quantify this gap.")
}
