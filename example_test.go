package hpe_test

import (
	"fmt"
	"strings"

	"hpe"
)

// ExampleRun reproduces the paper's headline comparison on hotspot3D:
// HPE versus LRU at 75% oversubscription.
func ExampleRun() {
	lru, err := hpe.Run(hpe.RunSpec{App: "HSD", Policy: "lru", Rate: 75})
	if err != nil {
		panic(err)
	}
	hp, err := hpe.Run(hpe.RunSpec{App: "HSD", Policy: "hpe", Rate: 75})
	if err != nil {
		panic(err)
	}

	fmt.Printf("LRU faults: %d\n", lru.Faults)
	fmt.Printf("HPE faults: %d\n", hp.Faults)
	fmt.Printf("speedup: %.2fx\n", hp.IPC/lru.IPC)
	// Output:
	// LRU faults: 13824
	// HPE faults: 5823
	// speedup: 2.37x
}

// ExampleReplaySpec uses the timing-free replay to compare eviction counts —
// the fast path for policy studies that don't need the GPU timing model.
func ExampleReplaySpec() {
	lru, err := hpe.ReplaySpec(hpe.RunSpec{App: "STN", Policy: "lru", Rate: 75})
	if err != nil {
		panic(err)
	}
	ideal, err := hpe.ReplaySpec(hpe.RunSpec{App: "STN", Policy: "ideal", Rate: 75})
	if err != nil {
		panic(err)
	}

	fmt.Printf("LRU evicts %.1fx what Belady-MIN would\n",
		float64(lru.Evictions)/float64(ideal.Evictions))
	// Output:
	// LRU evicts 3.4x what Belady-MIN would
}

// ExamplePolicyNames lists the registry names a RunSpec's Policy field
// accepts; aliases such as "clock-pro" resolve to the same entries.
func ExamplePolicyNames() {
	fmt.Println(strings.Join(hpe.PolicyNames(), " "))
	info, _ := hpe.LookupPolicy("clock-pro")
	fmt.Println(info.Name, info.Display)
	// Output:
	// lru random rrip clockpro ideal hpe fifo lfu clock nru arc setlru
	// clockpro CLOCK-Pro
}

// ExampleWithProbe attaches a metrics probe to a run. Probes observe the
// simulator's typed event stream without changing any result; the metrics
// snapshot surfaces on Result.Probe.
func ExampleWithProbe() {
	m := hpe.NewMetricsProbe()
	res, err := hpe.Run(hpe.RunSpec{App: "HSD", Policy: "lru", Rate: 75}, hpe.WithProbe(m))
	if err != nil {
		panic(err)
	}

	fmt.Printf("faults: %d\n", res.Faults)
	fmt.Printf("probe fault_end events: %d\n", res.Probe.Count("fault_end"))
	// Output:
	// faults: 13824
	// probe fault_end events: 13824
}

// ExampleHPEStatsOf inspects HPE's classification of a workload.
func ExampleHPEStatsOf() {
	// kmeans: the paper's ratio1 outlier
	res, err := hpe.Run(hpe.RunSpec{App: "KMN", Policy: "hpe", Rate: 75})
	if err != nil {
		panic(err)
	}

	if st, ok := hpe.HPEStatsOf(res); ok {
		fmt.Printf("category: %v\n", st.Category)
		fmt.Printf("strategy: %v\n", st.ActiveStrategy)
	}
	// Output:
	// category: irregular#2
	// strategy: LRU
}

// ExampleWorkloadsByPattern lists the Type II (thrashing) applications of
// Table II.
func ExampleWorkloadsByPattern() {
	for _, app := range hpe.WorkloadsByPattern(hpe.PatternThrashing) {
		fmt.Println(app.Abbr, app.Name)
	}
	// Output:
	// SRD srad_v2
	// HSD hotspot3D
	// MRQ mri-q
	// STN stencil
}
