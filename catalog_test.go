package hpe_test

import (
	"testing"

	"hpe"
)

// TestCatalogContract pins each Table II application's calibrated behaviour
// under the full HPE configuration at 75% oversubscription: classification
// category, initial strategy, and the qualitative HPE-vs-LRU outcome. These
// are the workload-calibration decisions EXPERIMENTS.md documents; a change
// to a generator or to HPE that silently flips one of them fails here.
func TestCatalogContract(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog contract skipped in -short mode")
	}
	type contract struct {
		category string // expected classification at 75%
		strategy string // initial strategy implied by the category
		// band bounds HPE's IPC speedup over LRU at 75%.
		minSpeedup, maxSpeedup float64
	}
	contracts := map[string]contract{
		// Type I: parity with LRU.
		"HOT": {"regular", "MRU-C", 0.99, 1.01},
		"LEU": {"regular", "MRU-C", 0.99, 1.01},
		"CUT": {"regular", "MRU-C", 0.99, 1.01},
		"2DC": {"regular", "MRU-C", 0.99, 1.01},
		"GEM": {"regular", "MRU-C", 0.99, 1.30},
		// Type II: the headline wins.
		"SRD": {"regular", "MRU-C", 1.6, 3.0},
		"HSD": {"regular", "MRU-C", 1.8, 3.0},
		"MRQ": {"regular", "MRU-C", 1.5, 3.0},
		"STN": {"regular", "MRU-C", 1.5, 3.0},
		// Type III: near parity (paper: slight wins; ours a hair either side).
		"PAT": {"regular", "MRU-C", 0.9, 1.1},
		"DWT": {"regular", "MRU-C", 0.9, 1.1},
		"BKP": {"regular", "MRU-C", 0.9, 1.1},
		"KMN": {"irregular#2", "LRU", 0.95, 1.05},
		"SAD": {"irregular#2", "LRU", 0.95, 1.15},
		// Type IV.
		"NW":  {"irregular#2", "LRU", 0.9, 1.1},
		"BFS": {"irregular#1", "LRU", 1.3, 2.5},
		"MVT": {"irregular#2", "LRU", 0.9, 2.2},
		// Type V.
		"HWL": {"regular", "MRU-C", 1.3, 2.2},
		"SGM": {"regular", "MRU-C", 1.3, 2.2},
		"HIS": {"irregular#2", "LRU", 1.0, 1.5},
		"SPV": {"irregular#2", "LRU", 1.0, 1.6},
		// Type VI: parity, LRU start.
		"B+T": {"irregular#2", "LRU", 0.93, 1.1},
		"HYB": {"irregular#1", "LRU", 0.93, 1.1},
	}
	for _, app := range hpe.Workloads() {
		want, ok := contracts[app.Abbr]
		if !ok {
			t.Errorf("%s: no contract recorded", app.Abbr)
			continue
		}
		sp := hpe.RunSpec{App: app.Abbr, Rate: 75}
		lru := mustRun(t, sp, "lru")
		res := mustRun(t, sp, "hpe")
		st, haveStats := hpe.HPEStatsOf(res)
		if !haveStats || !st.Classified {
			t.Errorf("%s: HPE never classified", app.Abbr)
			continue
		}
		if got := st.Category.String(); got != want.category {
			t.Errorf("%s: category %s, want %s", app.Abbr, got, want.category)
		}
		if got := st.Timeline[0].Strategy.String(); got != want.strategy {
			t.Errorf("%s: initial strategy %s, want %s", app.Abbr, got, want.strategy)
		}
		speedup := res.IPC / lru.IPC
		if speedup < want.minSpeedup || speedup > want.maxSpeedup {
			t.Errorf("%s: HPE/LRU speedup %.3f outside [%.2f, %.2f]",
				app.Abbr, speedup, want.minSpeedup, want.maxSpeedup)
		}
	}
}
