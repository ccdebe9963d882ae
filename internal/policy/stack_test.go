package policy_test

import (
	"testing"

	"hpe/internal/policy"
	"hpe/internal/runspec"
	"hpe/internal/trace"
	"hpe/internal/workload"
)

// TestStackPropertyOracle checks replay against two facts that hold for any
// reference string. LRU and Belady's MIN (Ideal) are stack algorithms, so
// their faults never rise as capacity grows; and MIN is optimal, so it never
// faults more than LRU at the same capacity. Every catalog app is replayed
// at the oversubscription rates of the suite's sweep plus 100%.
func TestStackPropertyOracle(t *testing.T) {
	rates := []int{40, 50, 60, 75, 90, 100} // ascending capacity
	for _, app := range workload.Catalog() {
		tr := app.Generate()
		fi := trace.BuildFutureIndex(tr)
		var prevLRU, prevIdeal uint64
		for i, rate := range rates {
			capacity := runspec.CapacityFor(tr, rate)
			lru := policy.Replay(tr, policy.NewLRU(), capacity)
			ideal := policy.Replay(tr, policy.NewIdeal(fi), capacity)
			if ideal.Faults > lru.Faults {
				t.Errorf("%s @%d%%: Ideal faults %d exceed LRU's %d", app.Abbr, rate, ideal.Faults, lru.Faults)
			}
			if i > 0 && lru.Faults > prevLRU {
				t.Errorf("%s: LRU faults rose from %d to %d as the rate grew to %d%%", app.Abbr, prevLRU, lru.Faults, rate)
			}
			if i > 0 && ideal.Faults > prevIdeal {
				t.Errorf("%s: Ideal faults rose from %d to %d as the rate grew to %d%%", app.Abbr, prevIdeal, ideal.Faults, rate)
			}
			prevLRU, prevIdeal = lru.Faults, ideal.Faults
		}
	}
}
