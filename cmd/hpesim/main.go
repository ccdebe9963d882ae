// Command hpesim runs one workload under one eviction policy at one
// oversubscription rate and prints the simulation metrics.
//
// The catalog flags are the CLI surface of the canonical run spec
// (internal/runspec): runspec.BindFlags binds them straight into a Spec's
// fields, the Spec is content-addressed and materialized exactly as the
// experiment suite and hped materialize it, and hpe.Run executes it — so an
// hpesim invocation, a POST /v1/runs body, and a suite cell describing the
// same run share one identity.
//
// Usage:
//
//	hpesim -app HSD -policy hpe -rate 75
//	hpesim -app BFS -policy lru,rrip,ideal,hpe -rate 50 -v
//	hpesim -app trace:dump.hpet -policy clockpro -rate 75   # pre-generated trace
//	hpesim -list                                        # list workloads
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"hpe"
	"hpe/internal/runspec"
)

func main() {
	spec := runspec.BindFlags(flag.CommandLine)
	list := flag.Bool("list", false, "list catalog workloads and exit")
	listPolicies := flag.Bool("policies", false, "list registered eviction policies and exit")
	metrics := flag.Bool("metrics", false, "attach a metrics probe and print per-event histograms")
	verbose := flag.Bool("v", false, "print extended statistics")
	flag.Parse()

	if *list {
		for _, a := range hpe.Workloads() {
			fmt.Println(a)
		}
		return
	}
	if *listPolicies {
		for _, info := range hpe.Policies() {
			fmt.Printf("%-10s %-10s %s\n", info.Name, info.Display, info.Description)
		}
		return
	}

	// Ctrl-C stops the current simulation at its next cancellation poll and
	// skips the remaining policies; a second Ctrl-C kills outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	// Catalog mode: each -policy entry is one run spec; the shared env
	// generates the (scaled) workload's trace once across the policy list.
	base := spec()
	specs := make([]hpe.RunSpec, 0, 4)
	for _, name := range strings.Split(base.Policy, ",") {
		sp := base
		sp.Policy = strings.TrimSpace(name)
		c, err := sp.Canonicalize()
		if err != nil {
			fatalf("%v", err)
		}
		specs = append(specs, c)
	}
	var cache runspec.Cache
	env := hpe.RunEnv{Trace: cache.Trace, Future: cache.Future}

	// Materializing the first spec resolves the workload source — a catalog
	// app, a phase schedule, a tenant colocation, or a trace file — and the
	// env memo shares its trace with the runs below.
	m0, err := specs[0].Materialize(env)
	if err != nil {
		fatalf("%v", err)
	}
	printBanner(m0.Trace, specs[0].Rate)

	for _, sp := range specs {
		ropts := []hpe.RunOption{hpe.WithContext(ctx), hpe.WithRunEnv(env)}
		var m *hpe.MetricsProbe
		if *metrics {
			m = hpe.NewMetricsProbe()
			ropts = append(ropts, hpe.WithProbe(m))
		}
		res, err := hpe.Run(sp, ropts...)
		if err != nil {
			fatalf("%v", err)
		}
		report(res, m, *verbose)
	}
}

func printBanner(tr *hpe.Trace, rate int) {
	capacity := runspec.CapacityFor(tr, rate)
	fmt.Printf("workload %s: %d refs, %d pages footprint (%.1f MB), memory %d pages (%d%%)\n",
		tr.Name, tr.Len(), tr.Footprint(), float64(tr.FootprintBytes())/(1<<20), capacity, rate)
}

// report prints one run's result block, exiting 130 on interruption.
func report(res hpe.Result, m *hpe.MetricsProbe, verbose bool) {
	if res.Cancelled {
		fmt.Fprintln(os.Stderr, "hpesim: interrupted")
		os.Exit(130)
	}
	fmt.Println(res)
	if verbose {
		printDetails(res)
	}
	if m != nil {
		fmt.Println("  probe: " + strings.ReplaceAll(m.Snapshot().String(), "\n", "\n  "))
	}
}

func printDetails(r hpe.Result) {
	fmt.Printf("  cycles=%d instructions=%d runtime=%.2fms\n", r.Cycles, r.Instructions, r.Runtime()*1e3)
	fmt.Printf("  L1 TLB %d/%d hits, L2 TLB %d/%d hits, walks=%d (merged %d), walk hits=%d\n",
		r.L1Hits, r.L1Hits+r.L1Misses, r.L2Hits, r.L2Hits+r.L2Misses, r.Walks, r.WalkMerges, r.WalkHits)
	fmt.Printf("  faults=%d (coalesced %d) evictions=%d barriers=%d queue depth max=%d\n",
		r.Faults, r.Coalesced, r.Evictions, r.BarriersCrossed, r.Driver.MaxQueueDepth)
	for _, ts := range r.Driver.Tenants {
		fmt.Printf("  tenant %-8s faults=%d evictions=%d cross-evictions=%d\n",
			ts.Name, ts.Faults, ts.Evictions, ts.CrossEvictions)
	}
	if r.DRAM != nil {
		fmt.Printf("  data: L1D %d/%d hits, L2D %d/%d hits, DRAM row-hit %.1f%%, queue wait %.1f cyc\n",
			r.DataL1Hits, r.DataL1Hits+r.DataL1Misses, r.DataL2Hits, r.DataL2Hits+r.DataL2Misses,
			r.DRAM.RowHitRate*100, r.DRAM.MeanQueueWait)
	}
	if r.HIR != nil {
		fmt.Printf("  HIR: %d hits recorded, %d drains, %.1f entries/transfer, %d conflicts, %d bytes over PCIe\n",
			r.HIR.HitsRecorded, r.HIR.Drains, r.HIR.MeanNonEmpty, r.HIR.Conflicts, r.Driver.HIRTransferBytes)
	}
	if st, ok := hpe.HPEStatsOf(r); ok && st.Classified {
		fmt.Printf("  HPE: %v (ratio1=%.3f ratio2=%.3f), strategy %v, %d switches, %d jumps, %d divisions\n",
			st.Category, st.Ratios.Ratio1, st.Ratios.Ratio2, st.ActiveStrategy, st.Switches, len(st.Jumps), st.Divisions)
		fmt.Printf("  HPE: %d MRU-C searches, %.1f comparisons avg, chain %d sets (%d/%d/%d old/mid/new)\n",
			st.Searches, st.MeanComparisons, st.ChainLen, st.ChainOld, st.ChainMiddle, st.ChainNew)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hpesim: "+format+"\n", args...)
	os.Exit(2)
}
